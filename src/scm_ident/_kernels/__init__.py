"""The exhaustive-audit kernel.

One numpy implementation lives in :mod:`scm_ident._kernels.pure`;
``BACKEND`` names it so run reports can say which kernel ran.
"""

from . import pure

BACKEND = pure.BACKEND_NAME
audit_shape = pure.audit_shape


def backends() -> dict[str, object]:
    """Every available kernel by name."""
    return {"pure": pure}
