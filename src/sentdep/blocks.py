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

import errno
import os
import shutil
from datetime import date
from pathlib import Path
from typing import Iterable

from .errors import OutputError
from .fork import MAX_CLAIMS
from .ingest import (
    KeywordCounts,
    LineTally,
    load_aspects,
    open_input,
    output_errors,
    parse_tweets,
    write_labeled,
)
from .labeler import PolarityLexicon, label_corpus
from .scores import counted

#: Bytes of a block before its end moves to the next line feed; a file of
#: more blocks than :data:`sentdep.fork.MAX_CLAIMS` is cut into that many.
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
    and cutting the tweet file into blocks (``spans``): at most
    :data:`sentdep.fork.MAX_CLAIMS`, so that :func:`sentdep.fork.claims`
    can share them. Any process may then label any block (:meth:`label`):
    the block's label rows are written as they stream to a part file of
    their own beside ``target`` (block 0's after the CSV header), and its
    keywords, labels and lines are counted into the process's
    :class:`Share`. No list of labels is held.

    ``target`` is ``out`` with every symbolic link resolved, once, when
    the labeling is made, so that a link at ``out`` is written through,
    as every other writer writes through it: the part files are made
    beside the link's target, and the join replaces the target. A loop
    of links is an OutputError, as opening it is for every other writer.
    Errors name ``out``.
    """

    def __init__(self, tweets_path, aspects_path, positive_path, negative_path, out_path,
                 window: int) -> None:
        self.aspects = load_aspects(aspects_path)
        self.lexicon = PolarityLexicon.from_files(positive_path, negative_path)
        self.tweets, self.out, self.window = Path(tweets_path), Path(out_path), window
        self.target = Path(os.path.realpath(self.out))
        if self.target.is_symlink():  # only a loop of links stays a link
            raise OutputError(f"cannot write file: {os.strerror(errno.ELOOP)}", path=self.out)
        self.spans = line_blocks(self.tweets, BLOCK_BYTES, MAX_CLAIMS)

    def part(self, index: int) -> Path:
        return self.target.with_name(f".{self.target.name}.{index}")

    def label(self, blocks: Iterable[int], share: Share) -> Share:
        """Label each of ``blocks`` into ``share``; returns ``share``."""
        for index in blocks:
            tally = share.tallies[index] = LineTally()
            tweets = parse_tweets(self.tweets, span=self.spans[index], tally=tally)
            if share.keywords is not None:
                tweets = share.keywords.tap(tweets)
            labels = label_corpus(tweets, self.aspects, self.lexicon, self.window)
            write_labeled(counted(labels, share.cells), self.part(index), header=not index,
                          shown=self.out)
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
        """Join the part files, in block order, into ``target``: they are
        written into block 0's part, which is then renamed, so ``target``
        appears whole or not at all. A failure names ``out``."""
        with output_errors(self.out):
            with open(self.part(0), "ab") as joined:
                for index in range(1, len(self.spans)):
                    with open(self.part(index), "rb") as part:
                        shutil.copyfileobj(part, joined)
            os.replace(self.part(0), self.target)
        self.discard()

    def discard(self) -> None:
        """Remove every part file that is left."""
        for index in range(len(self.spans)):
            self.part(index).unlink(missing_ok=True)
