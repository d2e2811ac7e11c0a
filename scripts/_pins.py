"""What the ``pin_*`` scripts share: array digests, the pin files' home and layout, and the write.

A pin file holds records: each element of its top-level lists and each
entry of its top-level objects.  ``write`` writes a missing file, leaves a
file whose records all match untouched, and refuses (exit code 1, file
untouched) one whose records differ.  To regenerate a pin on purpose,
delete the file, rerun its script, and name the numeric change in
CHANGES.md.
"""

import argparse
import hashlib
import json
import pathlib
import sys

import numpy as np

DATA = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"
_MISSING = object()


def sha256(array):
    """Hex sha256 of an array's bytes in C order."""
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def parser(doc, out):
    """The argument parser of a pin script: its docstring's summary and ``--out`` defaulting to ``out``."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--out", default=str(out))
    return parser


def _records(data):
    return {(key, sub): record for key, value in data.items()
            for sub, record in (enumerate(value) if isinstance(value, list) else value.items())}


def keep_or_write(path, n_differing, save, what):
    """The pin rule at ``path``, returning the exit code: ``n_differing(path)`` counts the existing
    file's records that differ from the new ones, and ``save(path)`` writes the new file."""
    path = pathlib.Path(path)
    if path.exists():
        differing = n_differing(path)
        if differing == 0:
            print(f"{path} already holds these {what}; left unchanged")
            return 0
        print(f"refusing to overwrite {path}: {differing} of {what} differ; delete it to regenerate",
              file=sys.stderr)
        return 1
    path.parent.mkdir(parents=True, exist_ok=True)
    save(path)
    print(f"wrote {what} to {path}")
    return 0


def write(path, data):
    """Write the JSON ``data`` to ``path`` by the pin rule, at indent 1 with a trailing newline; the exit code."""
    new = _records(data)

    def n_differing(existing):  # a record that only one side has differs
        old = _records(json.loads(existing.read_text()))
        return sum(old.get(key, _MISSING) != new.get(key, _MISSING) for key in old.keys() | new.keys())

    return keep_or_write(path, n_differing, lambda p: p.write_text(json.dumps(data, indent=1) + "\n"),
                         f"{len(new)} records")
