"""Old fullstudy checkpoints resume to the report of an uninterrupted run.

The fullstudy fixtures under ``tests/fixtures/formats/`` were written by
earlier versions of this program (one per journal-record version: the
inline-state records of ``84d676a`` and the state-snapshot records of
``509f09e``), each crashed at ``study:snoop``.  This resumes a copy of
each with the command that wrote it plus ``--resume``, and checks that
the report is byte-identical to one uninterrupted run's.  It takes
~20 s on a 2-vCPU box, too slow for tier-1, which resumes the campaign
fixtures instead (``tests/checkpoint/test_formats.py``).

The world draws, and so the reports, are CPython 3.11's: on another
minor version a resume may stop at "resume diverged" instead.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.fixture_resume
"""

import os
import shutil
import sys
import tempfile

from repro.cli import main as cli

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "tests", "fixtures", "formats")
COMMAND = ["fullstudy", "--scale", "100000", "--seed", "7", "--weeks",
           "2", "--snoop-sample", "5", "--faults", "none,crash=study:snoop"]


def report(directory, name, *flags):
    path = os.path.join(directory, name)
    code = cli(COMMAND + ["--out", path] + list(flags))
    if code != 0:
        return None
    with open(path, "rb") as handle:
        return handle.read()


def main():
    scratch = tempfile.mkdtemp(prefix="fixture-resume-")
    failures = 0
    try:
        clean = report(scratch, "clean.md")
        for commit in sorted(os.listdir(FIXTURES)):
            source = os.path.join(FIXTURES, commit, "fullstudy")
            if not os.path.isdir(source):
                continue
            directory = os.path.join(scratch, commit)
            shutil.copytree(source, directory)
            resumed = report(scratch, commit + ".md", "--checkpoint-dir",
                             directory, "--resume")
            same = resumed is not None and resumed == clean
            print("%s %s/fullstudy resumed to the uninterrupted report"
                  % ("ok  " if same else "FAIL", commit), file=sys.stderr)
            failures += not same
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failures or clean is None else 0


if __name__ == "__main__":
    sys.exit(main())
