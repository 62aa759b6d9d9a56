"""Docstring-coverage gate for the public ``repro.comm`` API.

Wraps ``tools/check_docstrings.py`` (the same script CI runs as a
standalone step) so the requirement is enforced by the tier-1 suite
too: every public module, class, and function in the communication
layer must carry a docstring.  Also checks that ``tools/check_docs.py``
catches docs naming a module path that no longer exists, and an
``autotune_options`` table out of step with ``Autotuner``.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docstrings import DEFAULT_TARGETS, check_file  # noqa: E402


def test_public_comm_api_has_docstrings():
    problems = []
    for target in DEFAULT_TARGETS:
        problems.extend(
            f"{target.relative_to(REPO_ROOT)}:{line}: {msg}"
            for line, msg in check_file(target)
        )
    assert not problems, "missing docstrings:\n" + "\n".join(problems)


def test_docs_check_flags_a_deleted_module_path():
    """``tools/check_docs.py`` resolves whole dotted paths, so a doc
    still naming a deleted submodule fails the gate."""
    from check_docs import check_module_refs

    docs = [("docs/x.md", "`repro.telemetry.health.Thresholds` and "
                          "`repro.telemetry.health.events`")]
    problems = check_module_refs(docs, verbose=False)
    assert len(problems) == 1 and "repro.telemetry.health.events" in problems[0]


def test_docs_check_flags_a_stale_autotune_option_row():
    """A row in the ``autotune_options`` table naming an option
    ``Autotuner`` no longer takes fails the gate; so does a missing one."""
    from check_docs import check_autotune_options

    path = str(REPO_ROOT / "docs" / "autotuning.md")
    text = Path(path).read_text()
    assert check_autotune_options([(path, text)]) == []

    marker = "| `window_iters` |"
    stale = text.replace(marker, "| `retired_option` | `1` | gone |\n" + marker, 1)
    problems = check_autotune_options([(path, stale)])
    assert len(problems) == 1 and "retired_option" in problems[0]

    missing = "\n".join(line for line in text.splitlines()
                        if not line.startswith("| `seed` |"))
    problems = check_autotune_options([(path, missing)])
    assert len(problems) == 1 and "seed" in problems[0]
