"""scipy loads only where it runs.

Two functions use scipy: :func:`repro.core.association.extract_observations`
(``find_peaks``) and :func:`repro.core.gestures.robust_noise_sigma`
(``erfinv``).  Each imports it inside the function, so a process that
never calls them — ``repro serve``, ``repro fleet`` and its shards, the
streaming runtime, an offline ``compute_spectrogram`` — never pays
scipy's import, about 1.5 s and 70 MB.  This test keeps it that way.
"""

import subprocess
import sys
import textwrap

#: Imported in this order, in one fresh interpreter.
MODULES = (
    "repro",
    "repro.cli",
    "repro.core.tracking",
    "repro.runtime",
    "repro.serve",
    "repro.fleet",
    "repro.capture",
    "repro.observe",
)

SCRIPT = textwrap.dedent(
    """
    import importlib
    import sys
    import traceback

    class Witness:
        # Records the innermost repro source line that first imports
        # scipy, then lets the normal finders load it.
        where = None

        def find_spec(self, name, path=None, target=None):
            if name == "scipy" and Witness.where is None:
                frames = [
                    frame for frame in traceback.extract_stack()
                    if "repro" in frame.filename and "importlib" not in frame.filename
                ]
                Witness.where = (
                    f"{frames[-1].filename}:{frames[-1].lineno}" if frames else "?"
                )
            return None

    sys.meta_path.insert(0, Witness())
    for name in sys.argv[1:]:
        importlib.import_module(name)
        scipy = [module for module in sys.modules if module.split(".")[0] == "scipy"]
        if scipy:
            sys.exit(
                f"import {name} loaded {len(scipy)} scipy modules, "
                f"first imported at {Witness.where}"
            )
    """
)


def test_no_repro_package_imports_scipy():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, *MODULES],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
