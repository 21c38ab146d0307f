"""Rules the package source keeps, checked on its syntax tree.

Runtime checks must survive ``python -O``, which strips ``assert``
statements, so the package raises explicit exceptions instead.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import ncsa

PACKAGE = Path(ncsa.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {', '.join(found)}"


def test_mask_width_is_decided_in_gf2_only():
    # whether column masks fit in int64 is `gf2.mask_dtype`'s decision alone
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "gf2.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is int and node.value in (62, 63)
        ]
    assert not found, f"mask width tested outside gf2.mask_dtype: {', '.join(found)}"


def test_cli_import_loads_no_network_modules():
    # every CLI spawn pays for what `import ncsa.cli` loads; `urllib.parse`
    # is allowed, as numpy's own `pathlib` import loads it
    code = "import sys, ncsa.cli; print(' '.join(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    ).stdout.split()
    banned = ("urllib.request", "http.client", "ssl", "email", "socket", "xml.sax")
    found = [name for name in loaded if name in banned or name.split(".")[0] in banned]
    assert not found, f"import ncsa.cli loads {', '.join(found)}"


def test_gated_calls_load_no_numpy_ma():
    # numpy 2.4's np.unique imports all of numpy.ma (over 10 ms) on first
    # use; neither a design sweep nor a simulate that peels may pay for it,
    # nor load any scipy module
    code = (
        "import os, sys\n"
        "import ncsa.decoders\n"
        "from ncsa.cli import main\n"
        "peel, peels = ncsa.decoders._peel, []\n"
        "ncsa.decoders._peel = lambda *a, **k: peels.append(1) or peel(*a, **k)\n"
        "main(['sweep', '--cap', '12', '--out', os.devnull])\n"
        "main(['simulate', '--users', '2000', '--rate', '0.5', '--dist', '3:1', '--cap', '10',\n"
        "      '--decoder', 'all', '--seed', '5', '--out', os.devnull])\n"
        "print('numpy.ma' in sys.modules, len(peels) > 0,\n"
        "      any(name.split('.')[0] == 'scipy' for name in sys.modules))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.stdout.split() == ["False", "True", "False"]


def test_gated_calls_load_no_random_or_hash_modules():
    # frames come from the package's own counter-based stream, so neither a
    # simulate nor a sweep loads numpy.random, whose first use imports
    # `secrets` and with it hashlib and OpenSSL's _hashlib
    code = (
        "import os, sys\n"
        "from ncsa.cli import main\n"
        "main(['simulate', '--users', '2000', '--rate', '0.5', '--dist', '3:1', '--cap', '10',\n"
        "      '--decoder', 'all', '--seed', '5', '--out', os.devnull])\n"
        "main(['sweep', '--cap', '12', '--out', os.devnull])\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    ).stdout.split()
    banned = ("numpy.random", "secrets", "hashlib", "_hashlib")
    found = [name for name in loaded if name in banned or name.startswith("numpy.random.")]
    assert not found, f"simulate and sweep load {', '.join(found)}"


def test_package_source_names_no_numpy_random():
    found = [path.name for path in sorted(PACKAGE.glob("*.py")) if "np.random" in path.read_text(encoding="utf-8")]
    assert not found, f"np.random used in {', '.join(found)}"
