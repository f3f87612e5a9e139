"""The names the bench tracer reads from braidinv still resolve.

bench/traced_cli.py wraps every public function of the modules that
bench/layers.py lists in MODULES and counts the bytes of the documents
that the RENDER_DOCUMENTS functions return.  Moving one of them out of
src/ breaks the traced bench run, so bench/layers.py is read here, as a
file and unchanged, and each name it gives is looked up.
"""

import importlib
import os
import runpy

from test_golden import ROOT

# run from its source, so no bytecode cache is written under bench/
LAYERS = runpy.run_path(os.path.join(ROOT, "bench", "layers.py"))


def test_every_traced_module_imports():
    for name in LAYERS["MODULES"]:
        assert importlib.import_module(f"braidinv.{name}").__file__, name


def test_every_render_document_resolves():
    for fid in LAYERS["RENDER_DOCUMENTS"]:
        module, attr = fid.split(".")
        assert callable(getattr(importlib.import_module(f"braidinv.{module}"),
                                attr)), fid
