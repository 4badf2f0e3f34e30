"""FCIDUMP parsing and assembly of the spin-orbital molecular Hamiltonian.

The FCIDUMP interchange format carries a `&FCI ... &END` (or `/`) namelist
with NORB/NELEC/MS2 followed by integral records `value i j k l` with
1-based spatial-orbital indices in chemists' notation:

  * i=j=k=l=0        core (nuclear repulsion / frozen-core) energy
  * k=l=0            one-electron integral h(i,j)
  * otherwise        two-electron integral (ij|kl)

Two-electron integrals obey the 8-fold permutational symmetry of real
orbitals and are stored under a canonical key. Fortran `D` exponents are
accepted, values that are not finite numbers refused. Lines starting with
`#` are comments; fixture files use them to carry `# REF_HF=` /
`# REF_FCI=` reference energies.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .statevector import sector_dimension

__all__ = [
    "FcidumpData",
    "FcidumpError",
    "MolecularHamiltonian",
    "parse_fcidump",
    "read_fcidump",
    "dump_fcidump",
    "reference_energies",
    "to_spin_orbital",
]


class FcidumpError(ValueError):
    """Malformed FCIDUMP content."""


def _canonical_one_body(i, j):
    return (i, j) if i >= j else (j, i)


def _canonical_two_body(i, j, k, l):
    a = (i, j) if i >= j else (j, i)
    b = (k, l) if k >= l else (l, k)
    return a + b if a >= b else b + a


@dataclass
class FcidumpData:
    """Raw FCIDUMP content: sizes, core energy and spatial-orbital integrals.

    one_body maps a canonical (i,j) with i >= j to h(i,j); two_body maps the
    canonical representative of the 8 equivalent index tuples to (ij|kl).
    Indices are 1-based as read from the file.
    """

    norb: int
    nelec: int
    ms2: int
    core_energy: float = 0.0
    one_body: dict = field(default_factory=dict)
    two_body: dict = field(default_factory=dict)

    def one_body_value(self, i, j):
        return self.one_body.get(_canonical_one_body(i, j), 0.0)

    def two_body_value(self, i, j, k, l):
        return self.two_body.get(_canonical_two_body(i, j, k, l), 0.0)


@dataclass
class MolecularHamiltonian:
    """Second-quantized spin-orbital Hamiltonian.

    h_pqrs[p, q, r, s] is the coefficient of a_p^ a_r^ a_s a_q and carries
    the factor 1/2 from the double-counted two-electron sum. Spin orbitals
    are interleaved: p = 2*(spatial-1) + sigma, sigma=0 alpha, 1 beta, so
    the closed-shell Hartree-Fock determinant occupies the lowest n bits.
    """

    n_spin_orbitals: int
    n_electrons: int
    core_energy: float
    h_pq: np.ndarray
    h_pqrs: np.ndarray

    def antisymmetrized_two_body(self):
        """<pq||rs> in physicists' notation, used by the determinant solvers."""
        g = self.h_pqrs
        return 2.0 * (np.einsum("prqs->pqrs", g) - np.einsum("psqr->pqrs", g))


def _parse_float(token, where):
    try:
        value = float(token.replace("D", "E").replace("d", "e"))
    except ValueError:
        raise FcidumpError(f"{where}: malformed numeric token {token!r}") from None
    if not np.isfinite(value):
        raise FcidumpError(f"{where}: {token!r} is not a finite number")
    return value


def _parse_namelist(lines):
    """Consume namelist lines, return (key->raw string, index of first body line)."""
    text = []
    end = None
    for idx, (lineno, line) in enumerate(lines):
        upper = line.upper()
        if idx == 0 and not upper.lstrip().startswith("&FCI"):
            raise FcidumpError(f"line {lineno}: expected &FCI namelist header")
        stripped = upper.replace("&FCI", "", 1) if idx == 0 else upper
        if "&END" in stripped or stripped.strip().endswith("/") or stripped.strip() == "/":
            stripped = stripped.replace("&END", "").rstrip().rstrip("/")
            text.append(stripped)
            end = idx + 1
            break
        text.append(stripped)
    if end is None:
        raise FcidumpError("namelist not terminated by &END or /")
    entries = {}
    for item in ",".join(text).split(","):
        item = item.strip()
        if not item or "=" not in item:
            continue
        key, _, value = item.partition("=")
        entries.setdefault(key.strip(), []).append(value.strip())
    # Multi-valued keys (ORBSYM lists) keep only their presence; scalars keep
    # the first value.
    return {k: v[0] for k, v in entries.items()}, end


def parse_fcidump(text) -> FcidumpData:
    """Parse FCIDUMP content given as str, bytes, or a readable text stream."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    elif hasattr(text, "read"):
        text = text.read()
        if isinstance(text, bytes):
            text = text.decode("ascii")
    lines = [(no, line) for no, line in enumerate(text.splitlines(), start=1)
             if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise FcidumpError("empty FCIDUMP")
    namelist, body_start = _parse_namelist(lines)
    missing = [k for k in ("NORB", "NELEC", "MS2") if k not in namelist]
    if missing:
        raise FcidumpError(f"missing required namelist keys: {', '.join(missing)}")
    try:
        norb = int(namelist["NORB"])
        nelec = int(namelist["NELEC"])
        ms2 = int(namelist["MS2"])
    except ValueError as exc:
        raise FcidumpError(f"non-integer namelist value: {exc}") from None
    if norb < 1:
        raise FcidumpError(f"NORB must be >= 1, got {norb}")
    if not 0 <= nelec <= 2 * norb:
        raise FcidumpError(f"NELEC={nelec} outside [0, {2 * norb}]")

    data = FcidumpData(norb=norb, nelec=nelec, ms2=ms2)
    for lineno, line in lines[body_start:]:
        tokens = line.split()
        if len(tokens) != 5:
            raise FcidumpError(f"line {lineno}: expected `value i j k l`, got {line!r}")
        value = _parse_float(tokens[0], f"line {lineno}")
        try:
            i, j, k, l = (int(t) for t in tokens[1:])
        except ValueError:
            raise FcidumpError(f"line {lineno}: malformed index in {line!r}") from None
        for idx in (i, j, k, l):
            if not 0 <= idx <= norb:
                raise FcidumpError(f"line {lineno}: index {idx} outside [0, {norb}]")
        if i == j == k == l == 0:
            data.core_energy = value
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FcidumpError(f"line {lineno}: one-body record with zero index")
            data.one_body[_canonical_one_body(i, j)] = value
        else:
            if 0 in (i, j, k, l):
                raise FcidumpError(f"line {lineno}: two-body record with zero index")
            data.two_body[_canonical_two_body(i, j, k, l)] = value
    return data


def read_fcidump(path) -> FcidumpData:
    with open(path, "r") as fh:
        return parse_fcidump(fh)


def reference_energies(path) -> dict:
    """Collect `# REF_<NAME>=<value>` comment lines from a fixture file; a
    value that is not a finite number raises FcidumpError at `path:line`."""
    refs = {}
    with open(path, "r") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if line.startswith("#") and "REF_" in line and "=" in line:
                key, _, value = line.lstrip("# ").partition("=")
                refs[key.strip()] = _parse_float(value.strip(), f"{path}:{number}")
    return refs


def dump_fcidump(data: FcidumpData) -> str:
    """Serialize back to FCIDUMP text; stored values round-trip bit-for-bit."""
    out = io.StringIO()
    out.write(f"&FCI NORB={data.norb},NELEC={data.nelec},MS2={data.ms2},\n")
    out.write(" ORBSYM=" + ",".join(["1"] * data.norb) + ",\n ISYM=1,\n&END\n")
    for (i, j, k, l), v in sorted(data.two_body.items()):
        out.write(f"{v!r} {i} {j} {k} {l}\n")
    for (i, j), v in sorted(data.one_body.items()):
        out.write(f"{v!r} {i} {j} 0 0\n")
    out.write(f"{data.core_energy!r} 0 0 0 0\n")
    return out.getvalue()


def to_spin_orbital(data: FcidumpData) -> MolecularHamiltonian:
    """Expand spatial integrals to the interleaved spin-orbital convention.

    h_pq = h(i_p, i_q) delta(sigma_p, sigma_q) and
    h_pqrs = (i_p i_q | i_r i_s) / 2 * delta(sigma_p, sigma_q) * delta(sigma_r, sigma_s),
    the coefficient of a_p^ a_r^ a_s a_q.

    Raises:
        FcidumpError: unless MS2 = NELEC mod 2, the sector of the
            Hartree-Fock reference on the lowest NELEC spin orbitals that
            the solvers and the ansatz loops share.
        DimensionCapError: when that sector exceeds the solvers' cap,
            checked before the (2 NORB)^4 tensor is allocated.
    """
    if data.ms2 != data.nelec % 2:
        raise FcidumpError(f"MS2={data.ms2} with NELEC={data.nelec}: only the "
                           f"Hartree-Fock sector, MS2={data.nelec % 2}, is supported")
    sector_dimension(2 * data.norb, data.nelec)
    norb = data.norb
    n = 2 * norb
    h1 = np.zeros((norb, norb))
    for (i, j), v in data.one_body.items():
        h1[i - 1, j - 1] = v
        h1[j - 1, i - 1] = v
    v2 = np.zeros((norb, norb, norb, norb))
    for (i, j, k, l), v in data.two_body.items():
        a, b, c, d = i - 1, j - 1, k - 1, l - 1
        for p, q in ((a, b), (b, a)):
            for r, s in ((c, d), (d, c)):
                v2[p, q, r, s] = v
                v2[r, s, p, q] = v

    h_pq = np.zeros((n, n))
    h_pq[0::2, 0::2] = h1
    h_pq[1::2, 1::2] = h1
    h_pqrs = np.zeros((n, n, n, n))
    for sig1 in (0, 1):
        for sig2 in (0, 1):
            h_pqrs[sig1::2, sig1::2, sig2::2, sig2::2] = 0.5 * v2
    return MolecularHamiltonian(
        n_spin_orbitals=n,
        n_electrons=data.nelec,
        core_energy=data.core_energy,
        h_pq=h_pq,
        h_pqrs=h_pqrs,
    )
