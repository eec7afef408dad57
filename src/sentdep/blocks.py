"""The built-in labeling of a tweet file, in blocks of whole lines.

:class:`TweetBlocks` cuts a tweet file at line feeds (see
:func:`line_blocks`), so that two processes can label it at once: each
labels the blocks it claims into a :class:`Share` of its own, and one of
them merges the shares in block order. ``sentdep run``
shares the blocks between its ingest child and its parent (see
:func:`sentdep.pipeline._ingest_beside_import`); ``sentdep label`` labels
every block in one process. Both write the same bytes. Only a run or a
command that labels tweets loads this module.
"""

from __future__ import annotations

import os
import shutil
from datetime import date
from pathlib import Path
from typing import Iterable

from .errors import OutputError
from .ingest import (
    KeywordCounts,
    LineTally,
    load_aspects,
    open_input,
    parse_tweets,
    write_labeled,
)
from .labeler import PolarityLexicon, label_corpus
from .scores import counted

#: Bytes of a block before its end moves to the next line feed; a file of
#: more blocks than its labeling allows is cut into that many.
BLOCK_BYTES = 1 << 16


def line_blocks(path, block_bytes: int, most: int) -> list[tuple[int, int]]:
    """Byte ranges ``(start, end)`` that cut a file into blocks of whole lines.

    Each block but the last ends just after a line feed, the first one at
    or after ``block_bytes`` bytes into the block, or ``size / most`` where
    that is more; so there are at most ``most`` blocks, and a line longer
    than a block stays whole. An empty file is one empty block.
    """
    with open_input(Path(path), "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        step = max(block_bytes, -(-size // most))
        spans, start = [], 0
        while start < size:
            fh.seek(start + step - 1)
            end = min(size, start + step - 1 + len(fh.readline()))
            spans.append((start, end))
            start = end
    return spans or [(0, 0)]


class Share:
    """What one process counted in the tweet blocks it labeled: the
    keywords (unless ``keywords`` is false), the labels as ``(aspect, day)
    -> [positive, negative, neutral]`` counts, and each block's
    :class:`~sentdep.ingest.LineTally`, by block index."""

    def __init__(self, keywords: bool = True) -> None:
        self.keywords = KeywordCounts() if keywords else None
        self.cells: dict[tuple[str, date], list[int]] = {}
        self.tallies: dict[int, LineTally] = {}

    def lines(self) -> int:
        return sum(tally.lines for tally in self.tallies.values())

    def labels(self) -> int:
        return sum(map(sum, self.cells.values()))

    def add(self, other: Share) -> None:
        """Add the counts of ``other``, which labeled other blocks."""
        self.tallies.update(other.tallies)
        if self.keywords is not None:
            self.keywords.add(other.keywords)
        for key, (positive, negative, neutral) in other.cells.items():
            cell = self.cells.get(key)
            if cell is None:
                self.cells[key] = [positive, negative, neutral]
            else:
                cell[0] += positive
                cell[1] += negative
                cell[2] += neutral


class TweetBlocks:
    """The labeling of one tweet file into ``out``, block by block.

    Made by reading the aspect lexicon and the term files, in that order,
    and cutting the tweet file into at most ``most`` blocks (``spans``).
    Any process may then label any block (:meth:`label`): the block's
    label rows are written as they stream to a part file of their own
    beside ``out`` (block 0's after the CSV header), and its keywords,
    labels and lines are counted into the process's :class:`Share`. No
    list of labels is held.
    """

    def __init__(self, tweets_path, aspects_path, positive_path, negative_path, out_path,
                 window: int, most: int) -> None:
        self.aspects = load_aspects(aspects_path)
        self.lexicon = PolarityLexicon.from_files(positive_path, negative_path)
        self.tweets, self.out, self.window = Path(tweets_path), Path(out_path), window
        self.spans = line_blocks(self.tweets, BLOCK_BYTES, most)

    def part(self, index: int) -> Path:
        return self.out.with_name(f".{self.out.name}.{index}")

    def label(self, blocks: Iterable[int], share: Share) -> Share:
        """Label each of ``blocks`` into ``share``; returns ``share``."""
        for index in blocks:
            tally = share.tallies[index] = LineTally()
            tweets = parse_tweets(self.tweets, span=self.spans[index], tally=tally)
            if share.keywords is not None:
                tweets = share.keywords.tap(tweets)
            labels = label_corpus(tweets, self.aspects, self.lexicon, self.window)
            write_labeled(counted(labels, share.cells), self.part(index), header=not index)
        return share

    def check(self, share: Share, malformed_cap: float) -> None:
        """Check the malformed-line cap over the line tallies of ``share``,
        which has every block's, in block order, as one file's (see
        :meth:`~sentdep.ingest.LineTally.check`): a warning or an error
        names the file's lines."""
        whole = LineTally()
        for index in range(len(self.spans)):
            whole.extend(share.tallies[index])
        whole.check(self.tweets, malformed_cap)

    def join(self) -> None:
        """Join the part files, in block order, into ``out``: they are
        written into block 0's part, which is then renamed, so ``out``
        appears whole or not at all."""
        with open(self.part(0), "ab") as joined:
            for index in range(1, len(self.spans)):
                with open(self.part(index), "rb") as part:
                    shutil.copyfileobj(part, joined)
        try:
            os.replace(self.part(0), self.out)
        except OSError as exc:
            raise OutputError(f"cannot write file: {exc.strerror}", path=self.out) from None
        self.discard()

    def discard(self) -> None:
        """Remove every part file that is left."""
        for index in range(len(self.spans)):
            self.part(index).unlink(missing_ok=True)
