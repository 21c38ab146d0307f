"""Rules the package source keeps, checked on its syntax tree or in fresh
interpreters.

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


def spawn(*args: str, **variables: str) -> str:
    """Standard output of `python args` in a fresh interpreter that imports
    this `ncsa`, stopped after 60 s.  The child gets this process's
    environment without OPENBLAS_NUM_THREADS, which importing `ncsa.cli`
    here may have set, plus `variables`."""
    env = {key: val for key, val in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env.update(variables)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True, timeout=60, env=env,
    ).stdout


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
    loaded = spawn("-c", "import sys, ncsa.cli; print(' '.join(sorted(sys.modules)))").split()
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
    assert spawn("-c", code).split() == ["False", "True", "False"]


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
    loaded = spawn("-c", code).split()
    banned = ("numpy.random", "secrets", "hashlib", "_hashlib")
    found = [name for name in loaded if name in banned or name.startswith("numpy.random.")]
    assert not found, f"simulate and sweep load {', '.join(found)}"


def test_package_source_names_no_numpy_random():
    found = [path.name for path in sorted(PACKAGE.glob("*.py")) if "np.random" in path.read_text(encoding="utf-8")]
    assert not found, f"np.random used in {', '.join(found)}"


# the BLAS thread setting and the count of threads once `ncsa.cli` is
# imported ("-" where the platform has no /proc/self/task)
CLI_THREADS = (
    "import os, ncsa.cli\n"
    "task = '/proc/self/task'\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir(task)) if os.path.isdir(task) else '-')\n"
)


def test_cli_import_loads_blas_single_threaded():
    # OpenBLAS's default pool starts a thread per core as numpy loads, and
    # no command uses it, so `ncsa.cli` asks for one before numpy loads
    setting, threads = spawn("-c", CLI_THREADS).split()
    assert setting == "1"
    assert threads in ("1", "-")


def test_cli_import_keeps_the_callers_blas_threads():
    setting, _ = spawn("-c", CLI_THREADS, OPENBLAS_NUM_THREADS="2").split()
    assert setting == "2"


def test_library_import_leaves_blas_threading_alone():
    code = "import os, ncsa.frames; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert spawn("-c", code).split() == ["None"]


def test_cli_import_leaves_the_chart_module_to_plot(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("x,y\n0,1\n1,0.5\n", encoding="utf-8")
    code = (
        "import sys, ncsa.cli\n"
        "loaded = 'ncsa.svg' in sys.modules\n"
        "code = ncsa.cli.main(['plot', sys.argv[1]])\n"
        "print(loaded, code, 'ncsa.svg' in sys.modules)\n"
    )
    assert spawn("-c", code, str(data)).split() == ["False", "0", "True"]
    assert (tmp_path / "data.svg").read_text(encoding="utf-8").startswith("<svg ")


def test_sweep_output_does_not_depend_on_blas_threads(tmp_path):
    # the design numbers a sweep publishes are the same with one BLAS
    # thread, as the CLI sets, and with two, as a caller may ask
    outputs = []
    for variables in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        dest = tmp_path / f"sweep{len(outputs)}.csv"
        spawn("-m", "ncsa", "sweep", "--cap", "12", "--out", str(dest), **variables)
        outputs.append(dest.read_bytes())
    assert outputs[0] == outputs[1]
