"""Reading the CSV artifacts the pipeline stages hand to each other.

Each artifact is read positionally: the header is looked up once, and each
data row is then a plain list of cells indexed by column position, so a
reader pays no per-row dict. A missing column, a row too short for the
columns read, or a cell that does not convert ends in `CorruptArtifactError`
(a `DataError`, exit 3) naming the file, the line and the command that
writes the file, instead of a traceback.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

from .errors import CorruptArtifactError


@contextmanager
def artifact_rows(
    path: str | Path, columns: Sequence[str], stage: str
) -> Iterator[tuple[list[int], Iterator[list[str]]]]:
    """Yield the positions of `columns` and an iterator over the data rows.

    Blank lines are skipped, as `csv.DictReader` skips them. A header name
    that occurs twice resolves to its last occurrence, again as in
    `DictReader`. A ValueError, KeyError or IndexError raised inside the
    block is taken to come from converting the row being read, and it, like
    a `csv.Error` or undecodable bytes, becomes `CorruptArtifactError` for
    that row's line; `stage` is the command to run again.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            at = {name: i for i, name in enumerate(next(reader, []))}
            missing = [name for name in columns if name not in at]
            if missing:
                raise CorruptArtifactError(path, 1, f"no {missing[0]!r} column in the header", stage)
            yield [at[name] for name in columns], filter(None, reader)
        except IndexError as exc:
            raise CorruptArtifactError(
                path, reader.line_num, "row has fewer cells than its header", stage
            ) from exc
        except (KeyError, ValueError, csv.Error) as exc:  # ValueError covers UnicodeDecodeError
            raise CorruptArtifactError(path, reader.line_num, str(exc), stage) from exc

