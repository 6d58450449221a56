"""The benchmark's per-layer hooks all find the functions they wrap.

``bench/spans.Tracer.patch`` skips a name the program no longer has, so a
rename would read 0 in that layer's metrics instead of failing a run.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
import spans  # noqa: E402


def test_every_patched_function_exists(monkeypatch):
    patched = []
    monkeypatch.setattr(
        spans.Tracer, "patch", lambda self, owner, attr, name, *args, **kwargs: patched.append((owner, attr, name))
    )
    instrumentation = layers.Instrumentation(workers=1)
    instrumentation.install()
    try:
        assert patched
        missing = [name for owner, attr, name in patched if not callable(getattr(owner, attr, None))]
        assert missing == [], "bench hooks name functions the program no longer has"
    finally:
        instrumentation.uninstall()
