"""Engine-path name kept for an existing import.

The simulator has one execution path: :meth:`repro.cpu.core.Core.step`,
driven by :meth:`~repro.cpu.core.Core.run` and the multi-core
scheduler.  :func:`resolve_engine_mode` exists only because the host-time
benchmark (``perfbench/cold_run.py``) imports it to label the path it
measured; a later change to that benchmark deletes this module.
"""


def resolve_engine_mode(mode: str = "auto") -> str:
    """The path every run takes: always ``"scalar"``."""
    return "scalar"
