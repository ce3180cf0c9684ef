"""``import hcmeta`` loads nothing beyond the standard library, numpy and scipy."""
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# what hcmeta imports of its dependencies; they may load modules of their own
DEPENDENCIES = ("numpy", "scipy.sparse", "scipy.sparse.linalg", "scipy.sparse.csgraph",
                "scipy.linalg", "scipy.stats")


def _loaded_by(statement: str) -> set[str]:
    """Top-level names of the modules that ``statement`` adds to sys.modules
    in a fresh interpreter."""
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_import_loads_only_stdlib_numpy_and_scipy():
    allowed = _loaded_by("import " + ", ".join(DEPENDENCIES)) | {"hcmeta"}
    extra = {m for m in _loaded_by("import hcmeta") - allowed
             if m not in sys.stdlib_module_names}
    assert not extra, f"import hcmeta loads modules outside its dependencies: {extra}"
