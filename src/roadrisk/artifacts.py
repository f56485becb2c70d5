"""How the artifacts the pipeline stages hand to each other look on disk.

This is the one module that writes and reads their text formats. A table is
a CSV file with a header row, and when a config hash is given, a last
`config_hash` column carries it on every row. A JSON artifact is one object
with two-space indents, sorted keys and a final newline, so a rerun on the
same inputs writes the same bytes.

Reading fails closed: a missing column, a short row, a cell that does not
convert, a file that is not a JSON object, or a JSON field that is missing
or has the wrong type ends in `CorruptArtifactError` (a `DataError`, exit 3)
naming the file, the line where one is known, and the command that writes
the file.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import CorruptArtifactError


def write_table(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    config_hash: str | None = None,
) -> None:
    """Write `header` and `rows` as CSV; with `config_hash`, a last column holds it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if config_hash is None:
            writer.writerow(header)
        else:
            writer.writerow([*header, "config_hash"])
            rows = ([*row, config_hash] for row in rows)
        writer.writerows(rows)


def write_json(path: str | Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def reading(path: str | Path, stage: str) -> Iterator[None]:
    """Turn a KeyError, TypeError or ValueError raised inside the block into
    `CorruptArtifactError` for `path`: the block interprets the file's
    contents, so such an error means a field is missing, has the wrong type
    or is out of range. `stage` is the command to run again."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise CorruptArtifactError(path, None, f"{type(exc).__name__}: {exc}", stage) from exc


def read_json(path: str | Path, stage: str) -> dict:
    """The JSON object in `path`; `CorruptArtifactError` if it holds none."""
    with reading(path, stage):
        with open(path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise TypeError(f"a JSON {type(obj).__name__} where an object belongs")
    return obj


@contextmanager
def artifact_rows(
    path: str | Path, columns: Sequence[str], stage: str
) -> Iterator[tuple[list[int], Iterator[list[str]]]]:
    """Yield the positions of `columns` and an iterator over the data rows.

    Each data row is a plain list of cells indexed by column position, so a
    reader pays no per-row dict. Blank lines are skipped, as
    `csv.DictReader` skips them. A header name that occurs twice resolves to
    its last occurrence, again as in `DictReader`. A ValueError, KeyError or
    IndexError raised inside the block is taken to come from converting the
    row being read, and it, like a `csv.Error` or undecodable bytes, becomes
    `CorruptArtifactError` for that row's line; `stage` is the command to
    run again.
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
