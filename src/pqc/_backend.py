"""Selects the bit-kernel implementations at import time.

``impl`` carries the version-1 records and the lossless records of every
version: the compiled extension ``_bits_c`` when present, else
``_bits_py``.  ``impl_v2`` carries version-2 lossy records: the compiled
extension ``_bits_eg`` when present, else ``_bits_py``.  Set
``PQC_BACKEND=py`` to force the pure-Python kernels, or ``PQC_BACKEND=c``
to require both compiled ones (raising if an extension was not built).
"""

import os

_choice = os.environ.get("PQC_BACKEND", "auto")

if _choice == "py":
    from . import _bits_py as impl
    from . import _bits_py as impl_v2
elif _choice == "c":
    from . import _bits_c as impl  # type: ignore[attr-defined]
    from . import _bits_eg as impl_v2  # type: ignore[attr-defined]
elif _choice == "auto":
    try:
        from . import _bits_c as impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _bits_py as impl
    try:
        from . import _bits_eg as impl_v2  # type: ignore[attr-defined]
    except ImportError:
        from . import _bits_py as impl_v2
else:
    raise ValueError(f"PQC_BACKEND must be 'auto', 'c', or 'py', not {_choice!r}")

BACKEND = impl.BACKEND
