"""The README documents only environment variables the code actually reads."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: where the documented variables are read: the package, plus the paper-report
#: harness for its own ``REPRO_BENCH_*`` settings
SOURCE_DIRS = ("src", "benchmarks")


def _source_text():
    chunks = []
    for top in SOURCE_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(ROOT, top)):
            for name in filenames:
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                        chunks.append(fh.read())
    return "\n".join(chunks)


def test_every_readme_env_var_is_read_by_the_code():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        names = set(re.findall(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]", fh.read()))
    assert names, "README documents no REPRO_* variable"
    source = _source_text()
    missing = sorted(n for n in names if not re.search(r"\b%s\b" % n, source))
    assert not missing, f"README names variables no code reads: {missing}"
