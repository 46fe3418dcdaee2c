"""Building the kernel library, the argument tables, and the ``REPRO_FUSED`` switch.

Every ``.c`` file next to this module (one per kernel family) builds into
one shared library with one ``cc`` call, strictly IEEE
(``-ffp-contract=off``, no fast-math).  NumPy's
``numpy/random/lib/libnpyrandom.a`` is linked statically for the ``random``
family; without that archive or its header the library is built without
``fleet_normal``.

A kernel that runs a whole segment or DQN step reads an
:class:`ArgumentTable` (sizes and buffer addresses, plus constants) that
its owner resolves once.  The layouts below name each table's slots, and
:func:`c_prelude` turns them into the C enums prepended to every ``.c``
file, so the two sides cannot disagree on a slot.

The library is cached in ``$XDG_CACHE_HOME/repro-fused`` (or
``~/.cache/repro-fused``), keyed by the sources, flags, CPU, NumPy version
and linked archive.  ``REPRO_FUSED=0`` turns every kernel off; it is the
only switch.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from pathlib import Path

import numpy as np

FAMILIES = ("random", "fleet", "dqn")

#: The C sources: one file per kernel family plus their shared header.
SOURCE_DIR = Path(__file__).parent
SOURCES = (*[f"{family}.c" for family in FAMILIES], "kernels.h")

# -ffp-contract=off: no multiply-add fusion (rounding must match NumPy's
# two-step ops).  -fno-math-errno: allows sqrt to vectorize (sqrtpd is still
# correctly rounded; only errno bookkeeping is dropped).  SIMD div/sqrt are
# IEEE-exact per element, so vectorization cannot change results.
CFLAGS = [
    "-O3", "-march=native", "-fno-math-errno", "-ffp-contract=off", "-shared", "-fPIC",
]

#: NumPy's random C library (the distribution code ``Generator`` runs) and
#: the include directory of the header declaring its ``bitgen_t``.
NPYRANDOM_INCLUDE = Path(np.get_include())
NPYRANDOM_ARCHIVE = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"

#: The CBLAS functions NumPy's matmul and dot call, (dgemm, dgemv, ddot), as
#: the ILP64 scipy-openblas build bundled with NumPy's wheels exports them.
#: A NumPy built on another BLAS exports none of them.
BLAS_SYMBOLS = ("scipy_cblas_dgemm64_", "scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")


# A device's processor-domain slots repeat once per domain, CPU first,
# after the device's own slots.  ``request_mask`` and each domain's
# ``request`` hold a level request until ``fleet_request_levels`` accepts it.
DEVICE_SLOTS = (
    "nodes", "sessions", "couplings", "temperatures", "power", "ambient", "resistance",
    "heat_capacity", "coupling_a", "coupling_b", "conductance", "remaining", "substep",
    "deltas", "duration", "energy", "total_energy", "elapsed", "request_mask",
)
DOMAIN_SLOTS = (
    "node", "throttled_level", "num_levels", "voltage_sq", "frequency", "utilisation",
    "request", "requested", "level", "throttled", "engage_count", "power",
)
DEVICE_CONSTANTS = ("max_substep",)
DOMAIN_CONSTANTS = (
    "capacitance", "idle", "leakage", "leakage_k", "leakage_ref", "trip", "release",
)
# One detector stage of a fleet environment: ``device`` and
# ``device_constants`` are the addresses of the fleet's own two tables and
# the five per-stage cost tables have ``stages`` entries each.  The segment
# constants, the device's compute profile, lead the frame's constants.
STAGE_SLOTS = (
    "device", "device_constants", "stages", "per_proposal", "scales", "fixed_cpu",
    "fixed_gpu", "proposal_cpu", "proposal_gpu", "image_scale", "proposals", "latency",
    "cpu_utilisation", "gpu_utilisation", "frame_energy",
)
SEGMENT_CONSTANTS = (
    "cpu_efficiency", "gpu_efficiency", "launch_overhead", "host_activity",
)
# One fleet environment's frame, read by its three phase kernels:
# ``device``/``device_constants``, ``stage1``/``stage2``, ``ar1`` and
# ``proposal``/``proposal_constants`` are the addresses of the sub-tables
# the phases run (``proposal`` is 0 for a one-stage detector), then the
# per-frame inputs, the environment's state arrays, and one staging block
# per phase and dtype whose rows follow the layouts below.
FRAME_SLOTS = (
    "device", "device_constants", "stage1", "stage2", "ar1", "proposal",
    "proposal_constants", "two_stage", "idle", "ambient_values", "ambient_slot",
    "stream_image_scale", "stream_constraint", "image_scale", "scene", "constraint",
    "previous_latency", "cpu_utilisation", "gpu_utilisation", "frame_energy",
    "stage1_latency", "stage2_latency", "num_proposals", "stage1_cpu_level",
    "stage1_gpu_level", "stage1_throttled", "start_floats", "start_ints", "start_flags",
    "mid_floats", "mid_ints", "mid_flags", "result_floats", "result_ints", "result_flags",
)
FRAME_CONSTANTS = SEGMENT_CONSTANTS + (
    "idle_ms", "idle_cpu_utilisation", "idle_gpu_utilisation",
)
# The rows of the observation blocks (both observations; ``latency_ms`` is
# the start observation's previous latency and the mid observation's
# stage-1 latency, and the start observation leaves ``num_proposals``
# unused) and of the frame result's, which hold every trace column.
OBSERVATION_FLOATS = (
    "cpu_temperature_c", "gpu_temperature_c", "latency_constraint_ms",
    "remaining_budget_ms", "latency_ms", "cpu_utilisation", "gpu_utilisation",
    "ambient_temperature_c",
)
OBSERVATION_INTS = ("cpu_level", "gpu_level", "num_proposals")
OBSERVATION_FLAGS = ("cpu_throttled", "gpu_throttled")
RESULT_FLOATS = (
    "stage1_latency_ms", "stage2_latency_ms", "total_latency_ms", "latency_constraint_ms",
    "cpu_temperature_c", "gpu_temperature_c", "ambient_temperature_c", "energy_j",
)
RESULT_INTS = (
    "num_proposals", "cpu_level_stage1", "gpu_level_stage1", "cpu_level_stage2",
    "gpu_level_stage2",
)
RESULT_FLAGS = ("met_constraint", "cpu_throttled", "gpu_throttled")
# One batched governor at one fleet size: ``step`` is schedutil's
# ``max_step_down`` or simple_ondemand's ``up_step``.
GOVERNOR_KINDS = ("schedutil", "ondemand", "simple_ondemand")
GOVERNOR_SLOTS = ("kind", "step", "sessions", "utilisation", "current", "levels")
GOVERNOR_CONSTANTS = ("margin", "up_threshold", "down_threshold")
DOMAINS = ("cpu", "gpu")
# One clipped AR(1) step over a fleet's scene-complexity streams.
AR1_SLOTS = (
    "sessions", "current", "mean", "correlation", "innovations", "minimum", "maximum",
)
# The proposal-count tail: ``has_factor`` is 0 when the detector draws no
# proposal noise (``factor`` is then never read).
PROPOSAL_SLOTS = ("sessions", "has_factor", "scene", "factor", "counts")
PROPOSAL_CONSTANTS = ("keep_ratio", "min_proposals", "max_proposals")
# One normal draw per session: ``generators`` holds each generator's
# ``bitgen_t`` address.
NORMAL_SLOTS = ("sessions", "generators", "scale", "out")

# The DQN kernels' layouts: a learner's own slots, then one block of layer
# slots per dense layer (see :func:`layered`).  ``half`` is the distance in
# elements from an online parameter to its target twin in the pair buffer;
# the last four slots (the states' addresses and row strides) are written
# per step.
DQN_SLOTS = (
    "gemm", "dot", "layers", "batch", "actions", "half", "grad_size", "targets",
    "losses", "grad_outputs", "grad", "rewards", "taken", "states", "states_ld",
    "next_states", "next_states_ld",
)
DQN_LAYER_SLOTS = (
    "inputs", "outputs", "boot_outputs", "stride", "weight", "bias", "pre", "act",
    "delta", "pair", "weight_grad", "bias_grad", "weight_m", "weight_v", "bias_m",
    "bias_v",
)
DQN_CONSTANTS = (
    "discount", "huber_delta", "count", "max_grad_norm", "learning_rate", "beta1",
    "beta2", "epsilon", "bias_correction1", "bias_correction2",
)
GREEDY_SLOTS = ("gemv", "layers", "state")
GREEDY_LAYER_SLOTS = ("inputs", "outputs", "stride", "weight", "bias", "act")


def repeated(own: tuple, prefixes, slots: tuple) -> tuple:
    return own + tuple(f"{prefix}_{slot}" for prefix in prefixes for slot in slots)


def layered(own: tuple, slots: tuple, layers: int) -> tuple:
    return repeated(own, (f"layer{i}" for i in range(layers)), slots)


DEVICE_LAYOUT = repeated(DEVICE_SLOTS, DOMAINS, DOMAIN_SLOTS)
DEVICE_CONSTANT_LAYOUT = repeated(DEVICE_CONSTANTS, DOMAINS, DOMAIN_CONSTANTS)


def c_prelude() -> str:
    """One ``enum { PREFIX_NAME, ..., PREFIX_SLOTS };`` per layout, for C."""
    enums = (
        ("FD", DEVICE_SLOTS), ("D", DOMAIN_SLOTS), ("FC", DEVICE_CONSTANTS),
        ("DC", DOMAIN_CONSTANTS), ("ST", STAGE_SLOTS),
        ("SC", SEGMENT_CONSTANTS), ("FR", FRAME_SLOTS), ("FRC", FRAME_CONSTANTS),
        ("OF", OBSERVATION_FLOATS), ("OI", OBSERVATION_INTS), ("OB", OBSERVATION_FLAGS),
        ("RF", RESULT_FLOATS), ("RI", RESULT_INTS), ("RB", RESULT_FLAGS),
        ("GK", GOVERNOR_KINDS), ("GV", GOVERNOR_SLOTS),
        ("GC", GOVERNOR_CONSTANTS), ("AR", AR1_SLOTS), ("PT", PROPOSAL_SLOTS),
        ("PC", PROPOSAL_CONSTANTS), ("NR", NORMAL_SLOTS), ("Q", DQN_SLOTS),
        ("QL", DQN_LAYER_SLOTS), ("QC", DQN_CONSTANTS), ("G", GREEDY_SLOTS), ("GL", GREEDY_LAYER_SLOTS),
    )
    return "".join(
        f"enum {{ {', '.join(f'{prefix}_{name.upper()}' for name in names)}, "
        f"{prefix}_SLOTS }};\n"
        for prefix, names in enums
    )


class ArgumentTable:
    """A per-call kernel's persistent arguments, resolved once.

    ``slots`` names the int64 table's entries in order: an integer value is
    stored as is, an array by the address of its first element.
    ``constants`` names the float64 table's entries.  The table keeps every
    array it points into alive (``buffers``, by name), so the owner must
    write those arrays only in place: rebinding an attribute to a new array
    would leave the kernel reading the old one.  Addresses are only valid in
    this process, so owners drop their tables when pickled or copied.
    """

    __slots__ = ("buffers", "values", "constants", "values_address", "constants_address")

    def __init__(self, slots: tuple, constants: tuple, arguments: dict):
        expected = set(slots) | set(constants)
        if set(arguments) != expected:
            raise ValueError(
                f"argument table needs {sorted(expected)}, got {sorted(arguments)}"
            )
        self.buffers = {}
        values = []
        for name in slots:
            value = arguments[name]
            if isinstance(value, np.ndarray):
                if not (value.flags.c_contiguous and value.flags.writeable):
                    raise ValueError(f"{name} must be a writeable C-contiguous array")
                self.buffers[name] = value
                values.append(value.ctypes.data)
            else:
                values.append(int(value))
        self.values = np.array(values, dtype=np.int64)
        self.constants = np.array([arguments[name] for name in constants], dtype=float)
        self.values_address = self.values.ctypes.data
        self.constants_address = self.constants.ctypes.data


def function(lib: ctypes.CDLL, name: str, restype, *argtypes):
    """The library's ``name``, typed; ``AttributeError`` if it is missing."""
    function = getattr(lib, name)
    function.restype = restype
    function.argtypes = argtypes
    return function


def enabled() -> bool:
    """Whether kernels may run at all (``REPRO_FUSED`` is not ``0``)."""
    return os.environ.get("REPRO_FUSED", "1") != "0"


def _cache_dir() -> Path:
    """Per-user, owner-only cache directory for the compiled library.

    Never a shared world-writable location: loading a ``.so`` from a path
    another local user can pre-create would be code injection.  The
    directory is created 0700 and its ownership verified before use.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = Path(base) / "repro-fused"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    stat = path.stat()
    if hasattr(os, "getuid") and stat.st_uid != os.getuid():
        raise PermissionError(f"{path} is not owned by the current user")
    if stat.st_mode & 0o022:
        raise PermissionError(f"{path} is writable by other users")
    return path


def _cpu_tag() -> str:
    """The CPU the library is compiled for: ``-march=native`` bakes its ISA
    into the binary, so the cache key must change with it (an AVX-512 build
    loaded on an older core, say from a shared home directory, would SIGILL,
    which no Python-level fallback can catch)."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    return line.strip()
    except OSError:
        pass
    import platform

    return platform.machine() + platform.processor()


def _npyrandom_build() -> tuple[list, list, str]:
    """``(flags, link inputs, cache-key part)`` for NumPy's random library.

    The archive is linked statically, so its hash is part of the cache key:
    a NumPy upgrade compiles afresh.  With the header or the archive
    missing, nothing is linked and ``fleet_normal`` is left out.
    """
    header = NPYRANDOM_INCLUDE / "numpy" / "random" / "bitgen.h"
    if not (header.is_file() and NPYRANDOM_ARCHIVE.is_file()):
        return [], [], "no-npyrandom"
    archive_hash = hashlib.sha256(NPYRANDOM_ARCHIVE.read_bytes()).hexdigest()
    return (
        ["-DREPRO_NPYRANDOM", f"-I{NPYRANDOM_INCLUDE}"],
        [str(NPYRANDOM_ARCHIVE)],
        archive_hash,
    )


def numpy_blas() -> tuple | None:
    """Addresses of the BLAS functions NumPy calls, or ``None`` if missing,
    looked up through NumPy's core extension: the copy NumPy has loaded."""
    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)
    try:
        return tuple(
            ctypes.cast(getattr(lib, name), ctypes.c_void_p).value
            for name in BLAS_SYMBOLS
        )
    except AttributeError:
        return None


def _compile() -> tuple[ctypes.CDLL | None, str | None]:
    sources = [SOURCE_DIR / name for name in SOURCES]
    prelude = c_prelude()
    flags, archives, archive_key = _npyrandom_build()
    key = hashlib.sha256(
        " ".join([prelude, *CFLAGS, *flags, _cpu_tag(), np.__version__, archive_key])
        .encode()
    )
    for path in sources:
        key.update(path.name.encode() + path.read_bytes())
    digest = key.hexdigest()[:16]
    cache_dir = _cache_dir()
    lib_path = cache_dir / f"kernels_{digest}.so"
    if not lib_path.exists():
        compiler = shutil.which("cc")
        if compiler is None:
            return None, "no compiler"
        tmp_path = cache_dir / f"kernels_{digest}.{os.getpid()}.so"
        prelude_path = tmp_path.with_suffix(".h")
        prelude_path.write_text(prelude)
        # Archives resolve only symbols referenced before them: sources first.
        try:
            result = subprocess.run(
                [compiler, *CFLAGS, *flags, "-include", str(prelude_path), "-o",
                 str(tmp_path), *[str(p) for p in sources if p.suffix == ".c"], *archives,
             "-lm"],
                capture_output=True,
                timeout=60,
            )
        finally:
            prelude_path.unlink()
        if result.returncode != 0 or not tmp_path.exists():
            return None, "compile failed"
        os.replace(tmp_path, lib_path)  # atomic for concurrent processes
    return ctypes.CDLL(str(lib_path)), None


_library: tuple[ctypes.CDLL | None, str | None] | None = None


def library() -> tuple[ctypes.CDLL | None, str | None]:
    """``(library, None)``, or ``(None, reason)`` when it cannot be built.

    Compiled (or found in the cache) and loaded once per process; the
    outcome, a failure included, is kept.
    """
    global _library
    if _library is None:
        try:
            _library = _compile()
        except Exception as exc:  # noqa: BLE001 - any failure means NumPy
            _library = None, type(exc).__name__
    return _library
