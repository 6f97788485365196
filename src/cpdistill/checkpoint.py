"""The encoding of every run record: the one writer of each text format,
the one reader, and the parameter checkpoint built on them.

Formats (the run-directory layout is in `cpdistill.continual`):

    JSON object     `write_json`: indent 1, sorted keys, no final newline.
                    ``config.json``, ``state.json``, a checkpoint's
                    ``manifest.json``.
    JSON lines      `write_json_lines`: one compact JSON object per line.
                    ``buffer.jsonl``.
    table           `write_table`: tab-separated cells, a newline after
                    each line; a float cell is ``repr(float(x))``, so it
                    reads back bit for bit, any other cell ``str(x)``.
                    ``metrics.tsv``, ``contexts.tsv``, ``audits.tsv``,
                    ``routing_layer*.tsv``, and the report's ``summary.tsv``
                    and ``embedding_pca.tsv``.
    checkpoint      a directory of two files (`save_groups`) that hold
                    named arrays:
                    manifest.json   {format, groups, extra}: the array table
                                    [{name, dtype, shape, offset, nbytes}]
                                    and the "extra" header
                    params.bin      row-major little-endian values, one
                                    contiguous segment per array at its
                                    offset
                    ``model/``, ``optimizer/``, ``fisher/``.

Checkpoint headers, parsed inside the reader of ``manifest.json``
(`load_groups`): ``model/``'s holds the model ``config`` and
``expert_counts``, from which `cpdistill.model._layout` lists the groups;
``optimizer/``'s only ``{"optimizer": {"t": ...}}``, each moment group's
step count (the learning rate is ``config.json``'s); and ``fisher/``'s
nothing. A header that lacks a key or does not match its
arrays raises `StateError` naming the file, as does a model group not of
the layout's dtype or a moment not of its group's. A reader ignores what
it does not read, so a record with more keys loads: a model header's older
``stage`` or ``new_expert_start``, an optimizer header's ``lr``, an array
entry's ``trainable``.

`read_record` is the one reader: it applies the caller's parse to a file's
text, or to its bytes, and turns a file that cannot be read (a record
missing from a complete stage) or any failure of the parse into a
`StateError` naming the file. `json_object`, `json_lines` and `table` parse
the three text formats; each record's module maps their values to its
fields. Round-trips are bit-exact.

Checks, by reader; each refusal is a `StateError` naming the file:

    json_object                 the text is one JSON object
    load_groups                 the manifest's format; its ``parse_extra``
                                checks the header against the stored
                                arrays: ``model/``'s group names, shapes
                                and dtype, against the layout its config
                                and expert counts give
                                (`cpdistill.model._parse_header`, behind
                                `StudentModel.load`), ``optimizer/``'s t
                                and moments (`load_optimizer`), and
                                ``fisher/``'s arrays, which must be the
                                student's names, shapes and dtype
                                (`ProtocolRunner.load_stage`)
    read_trajectories           each trajectory has the suite's shapes
    MetricsMatrix.load          a header, an intro row and rows of equal
                                length; the rows are stages 1..K, each
                                task's intro stage lies in 1..K and stage
                                1 introduces one, and row k holds a rate
                                in [0, 1] for each task introduced by
                                stage k and NaN for each later task
    load_contexts, read_audits  cells that parse as their fields

`ProtocolRunner.load_stage` then holds each record of ``stage_k/`` to the
run that reads it; `cpdistill.continual` lists those checks.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import StateError
from .optim import AdamW

__all__ = [
    "write_json", "write_json_lines", "write_table", "table_text",
    "read_record", "json_object", "json_lines", "table", "read_json_object",
    "save_groups", "load_groups", "save_optimizer", "load_optimizer",
]

_FORMAT = "cpdistill-params-v1"


# ---------------------------------------------------------------------------
# writers


def _write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def write_json(path, obj: dict) -> None:
    _write(path, json.dumps(obj, indent=1, sort_keys=True))


def write_json_lines(path, records) -> None:
    _write(path, "".join(json.dumps(r) + "\n" for r in records))


def _cell(x) -> str:
    # numpy floats go through float(): their repr names the numpy type
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def table_text(rows) -> str:
    """The table format of ``rows``, each an iterable of cells."""
    return "\n".join("\t".join(_cell(x) for x in row) for row in rows) + "\n"


def write_table(path, rows) -> None:
    _write(path, table_text(rows))


# ---------------------------------------------------------------------------
# the reader and the parses of the text formats


def read_record(path, parse, *, binary: bool = False):
    """``parse`` applied to the text of file ``path``, or to its bytes when
    ``binary``. A file that is missing or cannot be read, text that does not
    decode, or a parse that fails raises `StateError` naming the file."""
    path = Path(path)
    try:
        return parse(path.read_bytes() if binary else path.read_text())
    except OSError as err:  # missing, a directory, not permitted
        raise StateError(f"{path} cannot be read: {err.strerror or err}") from None
    except StateError as err:  # a parse's own check
        raise StateError(f"{path} is damaged: {err}") from None
    except (ValueError, LookupError, TypeError, AttributeError) as err:
        raise StateError(f"{path} is damaged: {type(err).__name__}: {err}") from None


def json_object(text: str) -> dict:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise StateError(f"it holds a JSON {type(data).__name__}, not an object")
    return data


def json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def table(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines()]


def read_json_object(path) -> dict:
    """The JSON object in file ``path``, such as ``config.json`` or
    ``state.json``."""
    return read_record(path, json_object)


# ---------------------------------------------------------------------------
# parameter checkpoints


def save_groups(path, arrays: dict[str, np.ndarray], extra: dict | None = None) -> None:
    """Write ``arrays`` (name -> array, in order) and the header ``extra``
    as a checkpoint in directory ``path``."""
    path = Path(path)
    entries = []
    blobs = []
    offset = 0
    for name, arr in arrays.items():
        dtype = arr.dtype.newbyteorder("<").str
        buf = arr.astype(dtype, copy=False).tobytes()
        entries.append(
            {"name": name, "dtype": dtype, "shape": list(arr.shape), "offset": offset,
             "nbytes": len(buf)}
        )
        blobs.append(buf)
        offset += len(buf)
    manifest = {"format": _FORMAT, "groups": entries, "extra": extra or {}}
    write_json(path / "manifest.json", manifest)
    (path / "params.bin").write_bytes(b"".join(blobs))


def _manifest(text: str, parse_extra) -> tuple[list, object]:
    manifest = json_object(text)
    if manifest.get("format") != _FORMAT:
        raise StateError(f"unrecognized checkpoint format {manifest.get('format')!r}")
    entries = [
        (e["name"], np.dtype(e["dtype"]), tuple(e["shape"]), e["offset"])
        for e in manifest["groups"]
    ]
    return entries, parse_extra(manifest["extra"], {e[0]: (e[2], e[1]) for e in entries})


def _arrays(blob: bytes, entries: list) -> dict[str, np.ndarray]:
    arrays = {}
    for name, dtype, shape, offset in entries:
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=offset).reshape(shape)
        arrays[name] = arr.astype(dtype.newbyteorder("="), copy=True)
    return arrays


def load_groups(path, parse_extra=lambda extra, stored: extra) -> tuple[dict, object]:
    """The arrays of the checkpoint in directory ``path`` (name -> array, in
    stored order) and its extra header, as ``parse_extra(extra, stored)``
    makes it inside the reader of ``manifest.json``. ``stored`` maps each
    stored array's name to its (shape, dtype), so that the parse can check
    the header against the arrays."""
    path = Path(path)
    entries, extra = read_record(path / "manifest.json", lambda t: _manifest(t, parse_extra))
    arrays = read_record(path / "params.bin", lambda b: _arrays(b, entries), binary=True)
    return arrays, extra


def save_optimizer(path, opt: AdamW) -> None:
    """Moments are stored as arrays named <group>.m / <group>.v, in the
    order of the optimizer's groups, not in the order the groups first took
    a step."""
    rank = {g.name: i for i, g in enumerate(opt.groups)}
    moments = {}
    for name in sorted(opt.m, key=lambda n: rank.get(n, len(rank))):
        moments[name + ".m"] = opt.m[name]
        moments[name + ".v"] = opt.v[name]
    save_groups(path, moments, extra={"optimizer": {"t": opt.t}})


def load_optimizer(path, groups: list, lr: float) -> AdamW:
    """The optimizer over ``groups`` saved in directory ``path``, at ``lr``;
    a moment smaller than its group grows at the group's next step."""
    specs = {g.name: (g.tensor.shape, g.tensor.dtype) for g in groups}

    def counts(extra: dict, stored: dict) -> dict[str, int]:
        if "t" not in extra.get("optimizer", {}):
            raise StateError("its header holds no optimizer t")
        t = {name: int(n) for name, n in extra["optimizer"]["t"].items()}
        if set(stored) != {f"{name}.{kind}" for name in t for kind in "mv"}:
            raise StateError("its moments are not one .m and one .v per group of its t")
        for moment, (shape, dtype) in stored.items():
            if moment[:-2] not in specs:
                raise StateError(f"it holds {moment}, but the model has no {moment[:-2]}")
            size, kind = specs[moment[:-2]]
            if len(shape) != len(size) or any(a > b for a, b in zip(shape, size)):
                raise StateError(f"{moment} of shape {list(shape)} outgrows its group's {list(size)}")
            if dtype != kind:
                raise StateError(f"{moment} is stored as {dtype.str}, its group as {kind.str}")
        return t

    moments, t = load_groups(path, counts)
    opt = AdamW(groups, lr, t=t)
    for name, arr in moments.items():
        store = opt.m if name.endswith(".m") else opt.v
        store[name[:-2]] = arr
    return opt
