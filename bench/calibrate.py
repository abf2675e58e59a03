"""Fixed pure-Python work whose wall time tells how fast the host runs now.

    python3 bench/calibrate.py

On the workloads with short commands the benchmark runs this between the
timed `mtn` commands, in a fresh interpreter as it runs the commands, and
scales the commands' times by it (see run.py). It imports nothing from mtnkit, so no change to the program
can move it. The work resembles the program's: an edit-distance table kept
in a dict keyed by tuples, as the tree edit distance keeps its memo, and
many small objects built and sorted, as parsing and projection do.
"""

from __future__ import annotations

SIZE = 420


class _Item:
    __slots__ = ("key", "label", "children")

    def __init__(self, key: int, label: str):
        self.key, self.label, self.children = key, label, []


def edit_table(size: int) -> int:
    a = [(i * 7919) % 13 for i in range(size)]
    b = [(i * 104729) % 13 for i in range(size)]
    memo: dict[tuple[int, int, int, int], int] = {}
    for i in range(size):
        for j in range(size):
            if i == 0 or j == 0:
                cost = i + j
            else:
                cost = min(memo[(0, i - 1, 0, j)] + 1,
                           memo[(0, i, 0, j - 1)] + 1,
                           memo[(0, i - 1, 0, j - 1)] + (a[i] != b[j]))
            memo[(0, i, 0, j)] = cost
    return memo[(0, size - 1, 0, size - 1)]


def objects(count: int) -> int:
    items = [_Item(i, f"notehead_{(i * 31) % 97}") for i in range(count)]
    for i, item in enumerate(items[1:], 1):
        items[(i * 7) % i].children.append(item)
    items.sort(key=lambda it: (it.label, -it.key))
    return sum(len(it.children) for it in items[:count // 2])


def main() -> int:
    edit_table(SIZE)
    objects(40 * SIZE)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
