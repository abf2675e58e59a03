"""Annotation sidecar: per-token graphics metadata next to a score file.

A sidecar is a JSON object keyed by token id. Each entry may carry a
bounding box ([x, y, w, h], integer pixels, nonnegative), a list of text
boxes ({"bbox": ..., "text": ...}), and a free-form "extra" object for
downstream tools. Sidecars never affect metrics or serialization of the
score itself.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .model import MTNWork, iter_tokens


class SidecarError(ValueError):
    """Sidecar content is structurally wrong or references unknown tokens."""


class TextBox(NamedTuple):
    bbox: tuple[int, int, int, int]
    text: str


class TokenAnnotation(NamedTuple):
    bbox: tuple[int, int, int, int] | None = None
    text_boxes: tuple[TextBox, ...] = ()
    extra: tuple[tuple[str, object], ...] = ()

    def extra_dict(self) -> dict:
        return dict(self.extra)


class Sidecar(NamedTuple):
    entries: tuple[tuple[str, TokenAnnotation], ...] = ()

    def by_token(self) -> dict[str, TokenAnnotation]:
        return dict(self.entries)


def _check_bbox(raw, token_id: str) -> tuple[int, int, int, int]:
    if (not isinstance(raw, list) or len(raw) != 4
            or not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in raw)):
        raise SidecarError(
            f"token {token_id}: bbox must be four integers, got {raw!r}")
    if any(v < 0 for v in raw):
        raise SidecarError(f"token {token_id}: negative bbox extent {raw!r}")
    return tuple(raw)


def read_sidecar(data: bytes | str, work: MTNWork | None = None) -> Sidecar:
    """Parse and check a sidecar; with a work given, every key must name one
    of its tokens."""
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SidecarError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SidecarError("sidecar top level must be an object")
    known = ({t.id for t in iter_tokens(work)} if work is not None else None)
    entries = []
    for token_id, raw in sorted(obj.items()):
        if known is not None and token_id not in known:
            raise SidecarError(f"unknown token id {token_id!r}")
        if not isinstance(raw, dict):
            raise SidecarError(f"token {token_id}: entry must be an object")
        unknown = set(raw) - {"bbox", "text_boxes", "extra"}
        if unknown:
            raise SidecarError(
                f"token {token_id}: unknown keys {sorted(unknown)}")
        bbox = _check_bbox(raw["bbox"], token_id) if "bbox" in raw else None
        boxes = []
        for tb in raw.get("text_boxes", []):
            if not isinstance(tb, dict) or set(tb) != {"bbox", "text"} \
                    or not isinstance(tb.get("text"), str):
                raise SidecarError(
                    f"token {token_id}: text box needs bbox and text")
            boxes.append(TextBox(_check_bbox(tb["bbox"], token_id), tb["text"]))
        extra = raw.get("extra", {})
        if not isinstance(extra, dict):
            raise SidecarError(f"token {token_id}: extra must be an object")
        entries.append((token_id, TokenAnnotation(
            bbox, tuple(boxes), tuple(sorted(extra.items())))))
    return Sidecar(tuple(entries))


def write_sidecar(sidecar: Sidecar) -> bytes:
    """Canonical JSON bytes: sorted keys, two-space indent, LF, newline at
    end. read(write(s)) returns an equal sidecar."""
    obj: dict[str, dict] = {}
    for token_id, ann in sidecar.entries:
        entry: dict[str, object] = {}
        if ann.bbox is not None:
            entry["bbox"] = list(ann.bbox)
        if ann.text_boxes:
            entry["text_boxes"] = [
                {"bbox": list(tb.bbox), "text": tb.text}
                for tb in ann.text_boxes]
        if ann.extra:
            entry["extra"] = ann.extra_dict()
        obj[token_id] = entry
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")
