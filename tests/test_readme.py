"""README's library example runs, and its comments state what it
returns: each top-level expression line `expr  # value ...` must print
a repr that the comment starts with.  README's `monoval monomialize`
sample is the command's output."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

from monoval import cli

ROOT = Path(__file__).parents[1]


def _example_and_claims():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    code, claims = [], []
    for line in block.splitlines():
        expr, hash_, comment = line.partition("#")
        if hash_ and line[:1].strip() and "=" not in expr:
            code.append("print(repr(%s))" % expr.strip())
            claims.append((expr.strip(), comment.strip()))
        else:
            code.append(line)
    return "\n".join(code), claims


def test_readme_library_example():
    code, claims = _example_and_claims()
    assert {"result.final_L", "result.residues[0].symbol",
            "report.ok"} <= {expr for expr, _ in claims}
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src")
               + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert len(printed) == len(claims)
    for (expr, comment), value in zip(claims, printed):
        assert comment.startswith(value), (expr, value, comment)


def test_readme_monomialize_sample():
    spec = "src/monoval/specs/example_f5.vspec"
    readme = (ROOT / "README.md").read_text()
    sample = readme.split("$ monoval monomialize %s\n" % spec, 1)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["monomialize", str(ROOT / spec)]) == 0
    assert out.getvalue() == sample.split("\n\n", 1)[0] + "\n"
