#!/usr/bin/env python
"""Docs/code consistency gate: the documented-knobs guarantee.

Three checks over ``docs/*.md``, ``README.md``, and
``examples/README.md``, all of which must pass for CI to go green:

1. **Knob coverage** — every ``REPRO_*`` environment variable read
   anywhere under ``src/`` and every autotunable knob in
   ``repro.autotune.knobs.KNOBS`` must appear in a markdown *table row*
   in the docs (the knob tables in ``docs/autotuning.md`` are the
   canonical home).  A knob you can set but cannot look up is a bug.
   The ``autotune_options`` table of ``docs/autotuning.md`` must list
   exactly the keyword parameters of ``Autotuner.__init__``: a missing
   row hides an option, a stale row documents one that is gone.
2. **Dead links** — every relative markdown link must resolve to an
   existing file (anchors are stripped; external ``http(s)``/``mailto``
   links are skipped).
3. **Stale module references** — every ``repro.a.b.c`` reference must
   resolve segment by segment, each one an attribute of the previous
   object or an importable submodule.  Renaming or deleting a module
   (or a public name) without sweeping the docs fails here.

Usage:
    python tools/check_docs.py            # check, exit non-zero on failure
    python tools/check_docs.py -v         # also list everything checked
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
DOC_FILES = ["README.md", "examples/README.md"]

ENV_VAR_RE = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
MODULE_REF_RE = re.compile(r"\brepro(?:\.[a-zA-Z_][a-zA-Z0-9_]*)+")


def doc_paths():
    docs_dir = os.path.join(REPO_ROOT, "docs")
    paths = [
        os.path.join(docs_dir, name)
        for name in sorted(os.listdir(docs_dir))
        if name.endswith(".md")
    ]
    paths += [os.path.join(REPO_ROOT, rel) for rel in DOC_FILES]
    return [p for p in paths if os.path.isfile(p)]


def src_env_vars():
    """Every REPRO_* variable referenced under src/."""
    found = set()
    for dirpath, _dirnames, filenames in os.walk(SRC_DIR):
        for name in filenames:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(dirpath, name)) as handle:
                found.update(ENV_VAR_RE.findall(handle.read()))
    return found


def autotune_knobs():
    sys.path.insert(0, SRC_DIR)
    from repro.autotune.knobs import KNOBS

    return set(KNOBS)


def autotuner_options():
    sys.path.insert(0, SRC_DIR)
    from repro.autotune.service import Autotuner

    params = list(inspect.signature(Autotuner.__init__).parameters)
    return set(params[2:])  # drop self, ddp


#: The sentence that introduces the options table in docs/autotuning.md.
OPTIONS_TABLE_MARKER = "`autotune_options` keys"


def options_table_rows(doc_text: str):
    """First-cell names of the table after :data:`OPTIONS_TABLE_MARKER`
    (None when the marker is missing)."""
    at = doc_text.find(OPTIONS_TABLE_MARKER)
    if at < 0:
        return None
    names = []
    in_table = False
    for line in doc_text[at:].splitlines()[1:]:
        stripped = line.strip()
        if not stripped.startswith("|"):
            if in_table:
                break
            continue
        in_table = True
        cell = stripped.strip("|").split("|")[0].strip()
        if cell.startswith("`") and cell.endswith("`"):
            names.append(cell.strip("`"))
    return names


def check_autotune_options(docs):
    """The ``autotune_options`` table rows equal Autotuner's options."""
    text = next((text for path, text in docs
                 if path.endswith(os.path.join("docs", "autotuning.md"))), "")
    rows = options_table_rows(text)
    if rows is None:
        return [f"docs/autotuning.md: no table after {OPTIONS_TABLE_MARKER!r}"]
    options = autotuner_options()
    problems = [
        f"Autotuner option {name} missing from the autotune_options table "
        f"in docs/autotuning.md"
        for name in sorted(options - set(rows))
    ]
    problems += [
        f"docs/autotuning.md: stale autotune_options row {name} (not a "
        f"keyword parameter of Autotuner.__init__)"
        for name in sorted(set(rows) - options)
    ]
    return problems


def table_row_text(doc_text: str) -> str:
    """Concatenated text of every markdown table row in the document."""
    rows = [
        line
        for line in doc_text.splitlines()
        if line.lstrip().startswith("|") and not set(line.strip()) <= {"|", "-", " ", ":"}
    ]
    return "\n".join(rows)


def check_knob_coverage(docs, verbose):
    """Check 1: env vars + autotune knobs present in doc knob tables."""
    tables = "\n".join(table_row_text(text) for _path, text in docs)
    problems = []
    env_vars = src_env_vars()
    for var in sorted(env_vars):
        if var not in tables:
            problems.append(
                f"env var {var} (read under src/) missing from every "
                f"docs knob table — add it to docs/autotuning.md"
            )
    knobs = autotune_knobs()
    autotuning_tables = next(
        (table_row_text(text) for path, text in docs
         if path.endswith(os.path.join("docs", "autotuning.md"))),
        "",
    )
    for knob in sorted(knobs):
        if f"`{knob}`" not in autotuning_tables:
            problems.append(
                f"autotunable knob {knob} missing from the knob table in "
                f"docs/autotuning.md"
            )
    problems += check_autotune_options(docs)
    if verbose:
        print(f"  knob coverage: {len(env_vars)} env vars, "
              f"{len(knobs)} autotune knobs, "
              f"{len(autotuner_options())} autotune options checked")
    return problems


def check_links(docs, verbose):
    """Check 2: every relative link target exists."""
    problems = []
    checked = 0
    for path, text in docs:
        base = os.path.dirname(path)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            checked += 1
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = os.path.normpath(os.path.join(base, target_path))
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, REPO_ROOT)
                problems.append(f"{rel}: dead link -> {target}")
    if verbose:
        print(f"  links: {checked} relative links checked")
    return problems


def _resolves(ref: str) -> bool:
    """Whether dotted ``ref`` names a real module, attribute chain, or
    a mix (``repro.telemetry.health.Thresholds``)."""
    parts = ref.split(".")
    obj = importlib.import_module(parts[0])
    for depth, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:depth]))
        except ImportError:
            return False
    return True


def check_module_refs(docs, verbose):
    """Check 3: repro.* references resolve to real modules/attributes."""
    sys.path.insert(0, SRC_DIR)
    problems = []
    refs = set()
    for path, text in docs:
        rel = os.path.relpath(path, REPO_ROOT)
        for match in MODULE_REF_RE.finditer(text):
            ref = match.group(0)
            refs.add(ref)
            if not _resolves(ref):
                problems.append(f"{rel}: stale reference {ref} (does not resolve)")
    if verbose:
        print(f"  module refs: {len(refs)} distinct repro.* paths checked")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="list what was checked")
    args = parser.parse_args(argv)

    docs = []
    for path in doc_paths():
        with open(path) as handle:
            docs.append((path, handle.read()))
    if args.verbose:
        print(f"checking {len(docs)} markdown files:")

    problems = []
    problems += check_knob_coverage(docs, args.verbose)
    problems += check_links(docs, args.verbose)
    problems += check_module_refs(docs, args.verbose)

    # De-dup (the same stale ref can appear in several files verbatim).
    unique = sorted(set(problems))
    if unique:
        print(f"check_docs: {len(unique)} problem(s):")
        for problem in unique:
            print(f"  - {problem}")
        return 1
    print(f"check_docs OK: {len(docs)} files — knob tables cover every "
          f"REPRO_* var and autotunable knob, no dead links, no stale "
          f"repro.* references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
