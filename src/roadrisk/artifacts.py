"""How the artifacts the pipeline stages hand to each other look on disk.

This is the one module that writes and reads their formats. A table is a
CSV file with a header row and no run hash: each command's manifest records
the sha256 of every file it writes. A JSON artifact is one object with
two-space indents, sorted keys and a final newline. A column file is an
uncompressed `.npz` archive of named numpy arrays whose members all carry
the same fixed timestamp; it is the one binary format, used for the
records, the checkpoint and both risk tensors (whose `.bin` files are such
archives). A rerun on the same inputs writes the same bytes.
One artifact is written elsewhere: `riskmap.export_geojson` formats the
weekly GeoJSON maps itself, in `write_json`'s layout, because json's
indenting encoder runs in pure Python and made the maps the largest cost of
a forecast. A test holds their bytes to what `write_json` writes.

Reading fails closed: a missing column, a short row, a cell that does not
convert, a file that is not a JSON object or not an `.npz` archive, a
field that is missing or has the wrong type, bytes before an archive's
first member or after its end, or archive members other than those their
reader declares end in `CorruptArtifactError` (a `DataError`, exit 3)
naming the file, the line where one is known, and the command that writes
the file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CorruptArtifactError


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write `header` and `rows` as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
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


def write_columns(path: str | Path, columns: dict[str, np.ndarray]) -> None:
    """Write `columns` as an `.npz` archive, one `<name>.npy` member each.

    `np.savez` stamps each member with the time of writing; the default
    `ZipInfo` timestamp (1980-01-01) keeps equal columns equal bytes.
    """
    with zipfile.ZipFile(path, "w") as archive:
        for name, values in columns.items():
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asarray(values), allow_pickle=False)


def read_columns(
    path: str | Path, schema: dict[str, tuple[type, tuple]], stage: str
) -> dict[str, np.ndarray]:
    """The members of a `write_columns` archive, checked against `schema`.

    `schema` maps each member's name to its dtype and shape. `np.str_`
    accepts a str array of any width. A shape entry is a length, or a name
    whose length every member that uses it must share; the first member to
    use it fixes it. `CorruptArtifactError` if the file is not a readable
    archive or does not start and end with it, lacks a declared member or
    holds an undeclared one, or a member has another dtype or shape or holds
    a float that is not finite.
    """
    with reading(path, stage):
        if not zipfile.is_zipfile(path):
            raise ValueError("not an .npz archive; it may be truncated")
        # `write_columns` writes no archive comment, so its first member's
        # header opens the file and the end-of-central-directory record
        # closes it; zipfile reads past bytes on either side
        with open(path, "rb") as fh:
            start = fh.read(len(zipfile.stringFileHeader))
            fh.seek(-zipfile.sizeEndCentDir, os.SEEK_END)
            end = fh.read()
        if start != zipfile.stringFileHeader:
            raise ValueError("bytes before the archive's first member")
        if not end.startswith(zipfile.stringEndArchive) or end[-2:] != b"\0\0":
            raise ValueError("bytes after the archive's end record")
        try:
            with np.load(path, allow_pickle=False) as archive:
                missing = [name for name in schema if name not in archive.files]
                if missing:
                    raise ValueError(f"no {missing[0]!r} column")
                extra = [name for name in archive.files if name not in schema]
                if extra:
                    raise ValueError(f"undeclared {extra[0]!r} column")
                columns = {name: archive[name] for name in schema}
        except (OSError, EOFError, zipfile.BadZipFile) as exc:
            raise ValueError(f"unreadable archive member: {exc}") from exc
        # np.load hands back the raw bytes of a member that is not a .npy array
        raw = [name for name, column in columns.items() if not isinstance(column, np.ndarray)]
        if raw:
            raise ValueError(f"member {raw[0]!r} is not a .npy array")
        lengths: dict[str, int] = {}
        for name, (dtype, shape) in schema.items():
            column = columns[name]
            for n, size in zip(shape, column.shape):
                if isinstance(n, str):
                    lengths.setdefault(n, size)
            want = tuple(lengths.get(n, n) for n in shape)
            typed = column.dtype.kind == "U" if dtype is np.str_ else column.dtype == dtype
            if column.shape != want or not typed:
                kind = "string" if dtype is np.str_ else np.dtype(dtype).name
                if shape == ():
                    raise ValueError(f"{name} is not one {kind}")
                raise ValueError(
                    f"column {name!r} holds {column.dtype} of shape {column.shape}, "
                    f"not {kind} of shape {want}"
                )
            if column.dtype.kind == "f":
                bad = np.argwhere(~np.isfinite(column))
                if len(bad):
                    at = tuple(bad[0].tolist())
                    where = f"row {at[0]}" if len(at) == 1 else f"index {list(at)}"
                    raise ValueError(f"column {name!r} holds {column[at].item()!r} at {where}")
        return columns


def finite(cell: str) -> float:
    """The float in a table cell; ValueError if it does not parse or is not finite."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{cell!r} is not a finite number")
    return value


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
