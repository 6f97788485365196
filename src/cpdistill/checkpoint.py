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
    checkpoint      a directory of two files (`save_groups`):
                    manifest.json   {format, groups, extra}: the group table
                                    [{name, dtype, shape, trainable, offset,
                                    nbytes}] and the "extra" header
                    params.bin      row-major little-endian values, one
                                    contiguous segment per group at its
                                    offset
                    ``model/``, ``optimizer/``, ``fisher/``.

Checkpoint headers, parsed inside the reader of ``manifest.json``
(`load_groups`): ``model/``'s holds the layout (model ``config``,
``expert_counts``, ``new_expert_start``), ``optimizer/``'s only
``{"optimizer": {"t": ...}}``, each moment group's step count (the learning
rate is ``config.json``'s), and ``fisher/``'s nothing. A header that lacks a
key or does not match its groups raises `StateError` naming the file, as
does a model group not of the layout's dtype or a moment not of its
group's; a header with more keys, such as an older model ``stage`` or
optimizer ``lr``, loads.

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
                                groups: ``model/``'s layout and dtype
                                (`StudentModel.load`), ``optimizer/``'s t
                                and moments (`load_optimizer`), and
                                ``fisher/``'s groups, which must be the
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
run that reads it: ``state.json``'s types, strategy and seed, the tasks,
introduction stages and rows of ``metrics.tsv``, the ids and width of
``contexts.tsv``, the tasks and order of ``buffer.jsonl``, the model
config, and that an ``ewc`` stage before the last holds ``fisher/``.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import StateError
from .optim import AdamW, ParamGroup
from .tensor import Tensor

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


def _le_dtype(dtype: np.dtype) -> str:
    kind = np.dtype(dtype)
    if kind == np.float64:
        return "<f8"
    if kind == np.float32:
        return "<f4"
    raise StateError(f"unsupported checkpoint dtype {dtype}")


def save_groups(path, groups: list[ParamGroup], extra: dict | None = None) -> None:
    path = Path(path)
    entries = []
    blobs = []
    offset = 0
    for g in groups:
        raw = np.ascontiguousarray(g.tensor.data).astype(
            _le_dtype(g.tensor.data.dtype), copy=False
        )
        buf = raw.tobytes()
        entries.append(
            {
                "name": g.name,
                "dtype": _le_dtype(g.tensor.data.dtype),
                "shape": list(g.tensor.data.shape),
                "trainable": bool(g.trainable),
                "offset": offset,
                "nbytes": len(buf),
            }
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
        (e["name"], np.dtype(e["dtype"]), tuple(e["shape"]), e["trainable"], e["offset"])
        for e in manifest["groups"]
    ]
    return entries, parse_extra(manifest["extra"], {e[0]: (e[2], e[1]) for e in entries})


def _params(blob: bytes, entries: list) -> list[ParamGroup]:
    groups = []
    for name, dtype, shape, trainable, offset in entries:
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=offset).reshape(shape)
        arr = arr.astype(dtype.newbyteorder("="), copy=True)
        groups.append(ParamGroup(name, Tensor(arr), trainable=trainable))
    return groups


def load_groups(path, parse_extra=lambda extra, stored: extra) -> tuple[list[ParamGroup], object]:
    """The groups of the checkpoint in directory ``path`` and its extra
    header, as ``parse_extra(extra, stored)`` makes it inside the reader of
    ``manifest.json``. ``stored`` maps each stored group's name to its
    (shape, dtype), so that the parse can check the header against the
    groups."""
    path = Path(path)
    entries, extra = read_record(path / "manifest.json", lambda t: _manifest(t, parse_extra))
    groups = read_record(path / "params.bin", lambda b: _params(b, entries), binary=True)
    return groups, extra


def save_optimizer(path, opt: AdamW) -> None:
    """Moments are stored as pseudo-groups named <group>.m / <group>.v, in
    the order of the optimizer's groups, not in the order the groups first
    took a step."""
    rank = {g.name: i for i, g in enumerate(opt.groups)}
    moment_groups = []
    for name in sorted(opt.m, key=lambda n: rank.get(n, len(rank))):
        moment_groups.append(ParamGroup(name + ".m", Tensor(opt.m[name]), trainable=False))
        moment_groups.append(ParamGroup(name + ".v", Tensor(opt.v[name]), trainable=False))
    save_groups(path, moment_groups, extra={"optimizer": {"t": opt.t}})


def load_optimizer(path, groups: list[ParamGroup], lr: float) -> AdamW:
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

    moment_groups, t = load_groups(path, counts)
    opt = AdamW(groups, lr, t=t)
    for g in moment_groups:
        store = opt.m if g.name.endswith(".m") else opt.v
        store[g.name[:-2]] = g.tensor.data
    return opt
