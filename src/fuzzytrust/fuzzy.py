"""Generic Mamdani fuzzy inference.

Membership functions, linguistic variables, conjunctive rulebases,
min/max inference and centroid defuzzification over a uniform output
grid.  Systems are immutable after construction and safe to share
across threads.

Operator choices: AND = min, implication = min (clip), aggregation =
pointwise max, defuzzification = centroid sampled on ``defuzz_resolution``
points.  All of them are the conventional Mamdani defaults.

There is one inference path, ``FuzzyInferenceSystem.infer_batch``; a
scalar ``infer`` is a batch of one row.  On first use a system compiles
itself into arrays, once:

- per input variable, a parameter table of its sets when they are all
  Gaussian or all two-sided Gaussian (other variables evaluate each set
  on the whole input column);
- a rule -> antecedent-column index matrix into the (N, total sets)
  degree matrix, padded with an extra column that always holds degree 1;
- the rules sorted by consequent label, so the per-label max firing
  strength is one ``np.maximum.reduceat``;
- the output grid and the output sets sampled on it.

``infer_batch`` maps an (N, n_inputs) matrix to N crisp values and
returns NaN for a row whose aggregate has zero area (no rule fired);
``infer`` raises ``DegenerateOutputError`` there instead.  Rows are
processed in chunks whose (rows, labels, resolution) clip-max temporary
holds at most ``_CHUNK_FLOATS`` floats (2 MB), or one row when a single
row needs more.  Every reduction is row-wise, so a row's result does not
depend on the other rows or on the chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Union

import numpy as np

from .errors import DegenerateOutputError, MissingInputError
from .store import check_format

# exp(-z) underflows to exactly 0.0 near z ~ 745; clamping keeps far-field
# Gaussian degrees positive so fully off-manifold inputs still fire weakly
# instead of producing a spurious zero-area aggregate.
_EXP_CLAMP = 700.0

# Upper bound on the floats in one chunk's clip-max temporary (2 MB).
_CHUNK_FLOATS = 2**18


def _eval_result(out: np.ndarray) -> float | np.ndarray:
    return float(out) if out.ndim == 0 else out


def _gauss(x: np.ndarray, center, denom) -> np.ndarray:
    """Gaussian degree with ``denom`` = 2 * sigma**2."""
    return np.exp(-np.minimum((x - center) ** 2 / denom, _EXP_CLAMP))


@dataclass(frozen=True)
class Gaussian:
    """Classic bell curve: degree 1 at ``center``, spread ``sigma``."""

    center: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise ValueError(f"gaussian sigma must be > 0, got {self.sigma}")

    def __call__(self, x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        return _eval_result(_gauss(x, self.center, 2.0 * self.sigma * self.sigma))

    def to_dict(self) -> dict:
        return {"shape": "gaussian", "center": self.center, "sigma": self.sigma}


@dataclass(frozen=True)
class TwoSidedGaussian:
    """Plateau of degree 1 between the two centers, Gaussian lobes outside."""

    left_center: float
    left_sigma: float
    right_center: float
    right_sigma: float

    def __post_init__(self):
        if not (self.left_sigma > 0.0 and self.right_sigma > 0.0):
            raise ValueError("two-sided gaussian lobes need sigma > 0")
        if self.left_center > self.right_center:
            raise ValueError("left_center must not exceed right_center")

    def __call__(self, x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        lo = x < self.left_center
        hi = x > self.right_center
        out = np.where(lo, _gauss(x, self.left_center, 2.0 * self.left_sigma * self.left_sigma), out)
        out = np.where(hi, _gauss(x, self.right_center, 2.0 * self.right_sigma * self.right_sigma), out)
        return _eval_result(out)

    def to_dict(self) -> dict:
        return {
            "shape": "two_sided_gaussian",
            "left_center": self.left_center,
            "left_sigma": self.left_sigma,
            "right_center": self.right_center,
            "right_sigma": self.right_sigma,
        }


@dataclass(frozen=True)
class Triangular:
    """Linear rise to 1 at ``apex``, linear fall; zero outside [left, right].

    ``left == apex`` or ``apex == right`` gives a half-triangle whose
    vertical edge sits on the apex.
    """

    left: float
    apex: float
    right: float

    def __post_init__(self):
        if not (self.left <= self.apex <= self.right):
            raise ValueError("triangular needs left <= apex <= right")
        if self.left == self.right:
            raise ValueError("triangular support must have positive width")

    def __call__(self, x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # a slope over a subnormal width is inf, then clipped
            if self.apex > self.left:
                rise = (x - self.left) / (self.apex - self.left)
            else:
                rise = np.where(x >= self.apex, 1.0, 0.0)
            if self.right > self.apex:
                fall = (self.right - x) / (self.right - self.apex)
            else:
                fall = np.where(x <= self.apex, 1.0, 0.0)
        out = np.clip(np.minimum(rise, fall), 0.0, 1.0)
        return _eval_result(out)

    def to_dict(self) -> dict:
        return {"shape": "triangular", "left": self.left, "apex": self.apex, "right": self.right}


@dataclass(frozen=True)
class ShoulderLeft:
    """Degree 1 up to ``flat_until``, linear fall to 0 at ``falls_to``."""

    flat_until: float
    falls_to: float

    def __post_init__(self):
        if not (self.flat_until < self.falls_to):
            raise ValueError("shoulder_left needs flat_until < falls_to")

    def __call__(self, x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # see Triangular
            fall = (self.falls_to - x) / (self.falls_to - self.flat_until)
        return _eval_result(np.clip(fall, 0.0, 1.0))

    def to_dict(self) -> dict:
        return {"shape": "shoulder_left", "flat_until": self.flat_until, "falls_to": self.falls_to}


@dataclass(frozen=True)
class ShoulderRight:
    """Degree 0 up to ``rises_from``, linear rise to 1 at ``flat_after``."""

    rises_from: float
    flat_after: float

    def __post_init__(self):
        if not (self.rises_from < self.flat_after):
            raise ValueError("shoulder_right needs rises_from < flat_after")

    def __call__(self, x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # see Triangular
            rise = (x - self.rises_from) / (self.flat_after - self.rises_from)
        return _eval_result(np.clip(rise, 0.0, 1.0))

    def to_dict(self) -> dict:
        return {"shape": "shoulder_right", "rises_from": self.rises_from, "flat_after": self.flat_after}


MembershipFunction = Union[Gaussian, TwoSidedGaussian, Triangular, ShoulderLeft, ShoulderRight]

_MF_SHAPES = {
    "gaussian": Gaussian,
    "two_sided_gaussian": TwoSidedGaussian,
    "triangular": Triangular,
    "shoulder_left": ShoulderLeft,
    "shoulder_right": ShoulderRight,
}


def mf_from_dict(data: Mapping) -> MembershipFunction:
    params = dict(data)
    shape = params.pop("shape", None)
    cls = _MF_SHAPES.get(shape)
    if cls is None:
        raise ValueError(f"unknown membership shape {shape!r}")
    return cls(**params)


@dataclass(frozen=True)
class LinguisticVariable:
    """A named real variable with an ordered list of labelled fuzzy sets."""

    name: str
    domain: tuple[float, float]
    sets: tuple[tuple[str, MembershipFunction], ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", (float(self.domain[0]), float(self.domain[1])))
        object.__setattr__(self, "sets", tuple((label, mf) for label, mf in self.sets))
        lo, hi = self.domain
        if not (lo < hi):
            raise ValueError(f"variable {self.name!r}: domain must satisfy lo < hi")
        if not self.sets:
            raise ValueError(f"variable {self.name!r}: needs at least one set")
        labels = [label for label, _ in self.sets]
        if len(set(labels)) != len(labels):
            raise ValueError(f"variable {self.name!r}: duplicate set labels")
        for label, mf in self.sets:
            if not self._support_intersects(mf, lo, hi):
                raise ValueError(f"variable {self.name!r}: set {label!r} has no support in the domain")

    @staticmethod
    def _support_intersects(mf: MembershipFunction, lo: float, hi: float) -> bool:
        if isinstance(mf, (Gaussian, TwoSidedGaussian)):
            return True  # Gaussians are positive everywhere
        if isinstance(mf, Triangular):
            return mf.left < hi and mf.right > lo
        if isinstance(mf, ShoulderLeft):
            return lo < mf.falls_to
        return hi > mf.rises_from

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.sets)

    def mf(self, label: str) -> MembershipFunction:
        for set_label, mf in self.sets:
            if set_label == label:
                return mf
        raise KeyError(f"variable {self.name!r} has no set {label!r}")

    @cached_property
    def _table(self) -> tuple | None:
        """Per-set parameter arrays when every set is Gaussian or every set
        is two-sided Gaussian; None for any other variable."""
        mfs = [mf for _, mf in self.sets]
        if all(type(mf) is Gaussian for mf in mfs):
            return (
                Gaussian,
                np.array([mf.center for mf in mfs]),
                np.array([2.0 * mf.sigma * mf.sigma for mf in mfs]),
            )
        if all(type(mf) is TwoSidedGaussian for mf in mfs):
            return (
                TwoSidedGaussian,
                np.array([mf.left_center for mf in mfs]),
                np.array([2.0 * mf.left_sigma * mf.left_sigma for mf in mfs]),
                np.array([mf.right_center for mf in mfs]),
                np.array([2.0 * mf.right_sigma * mf.right_sigma for mf in mfs]),
            )
        return None

    def fuzzify(self, x: np.ndarray) -> np.ndarray:
        """Degrees of the in-domain inputs ``x`` (shape (N,)) in every set,
        shape (N, n_sets), columns in set declaration order."""
        table = self._table
        if table is None:
            return np.stack([mf(x) for _, mf in self.sets], axis=1)
        col = x[:, None]
        if table[0] is Gaussian:
            return _gauss(col, table[1], table[2])
        _, left, left_denom, right, right_denom = table
        lobe_hi = np.where(col > right, _gauss(col, right, right_denom), 1.0)
        return np.where(col < left, _gauss(col, left, left_denom), lobe_hi)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "domain": list(self.domain),
            "sets": [{"label": label, "mf": mf.to_dict()} for label, mf in self.sets],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LinguisticVariable":
        return cls(
            name=data["name"],
            domain=tuple(data["domain"]),
            sets=tuple((s["label"], mf_from_dict(s["mf"])) for s in data["sets"]),
        )


@dataclass(frozen=True)
class FuzzyRule:
    """IF every antecedent (variable, label) holds THEN the consequent set."""

    antecedents: tuple[tuple[str, str], ...]
    consequent: tuple[str, str]

    def __post_init__(self):
        object.__setattr__(self, "antecedents", tuple((v, s) for v, s in self.antecedents))
        object.__setattr__(self, "consequent", (self.consequent[0], self.consequent[1]))
        if not self.antecedents:
            raise ValueError("rule needs at least one antecedent")

    def to_dict(self) -> dict:
        return {"if": [list(a) for a in self.antecedents], "then": list(self.consequent)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "FuzzyRule":
        return cls(
            antecedents=tuple((v, s) for v, s in data["if"]),
            consequent=tuple(data["then"]),
        )


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """Inference sampled on a 2-D input lattice; ``z`` is NaN where the
    aggregate was degenerate."""

    x_name: str
    y_name: str
    xs: np.ndarray
    ys: np.ndarray
    z: np.ndarray

    def rows(self) -> Iterator[tuple[float, float, float]]:
        """Row-major (x outer, y inner) cell iterator."""
        for i, x in enumerate(self.xs):
            for j, y in enumerate(self.ys):
                yield float(x), float(y), float(self.z[i, j])

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y,z\n")
            for x, y, z in self.rows():
                z_text = "NaN" if math.isnan(z) else repr(z)
                fh.write(f"{x!r},{y!r},{z_text}\n")


@dataclass(frozen=True)
class FuzzyInferenceSystem:
    """Immutable Mamdani system: input variables, one output variable and
    a conjunctive rulebase."""

    inputs: tuple[LinguisticVariable, ...]
    output: LinguisticVariable
    rules: tuple[FuzzyRule, ...]
    defuzz_resolution: int = 1001

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.inputs:
            raise ValueError("system needs at least one input variable")
        if not self.rules:
            raise ValueError("system needs at least one rule")
        if self.defuzz_resolution < 2:
            raise ValueError("defuzz_resolution must be >= 2")
        names = [v.name for v in self.inputs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate input variable names")
        if self.output.name in names:
            raise ValueError("output variable name collides with an input")
        by_name = {v.name: v for v in self.inputs}
        for rule in self.rules:
            for var, label in rule.antecedents:
                if var not in by_name:
                    raise ValueError(f"rule references unknown variable {var!r}")
                by_name[var].mf(label)  # raises KeyError on unknown label
            out_var, out_label = rule.consequent
            if out_var != self.output.name:
                raise ValueError(f"rule consequent variable {out_var!r} is not the output")
            self.output.mf(out_label)

    @cached_property
    def input_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.inputs)

    @cached_property
    def _output_xs(self) -> np.ndarray:
        lo, hi = self.output.domain
        xs = np.linspace(lo, hi, self.defuzz_resolution)
        xs.setflags(write=False)
        return xs

    @cached_property
    def _compiled(self) -> "_CompiledRules":
        labels = self.output.labels
        offsets = np.cumsum([0] + [len(v.sets) for v in self.inputs])
        one = int(offsets[-1])  # the padding column, always at degree 1
        columns = {
            (v.name, label): int(offsets[j]) + k
            for j, v in enumerate(self.inputs)
            for k, label in enumerate(v.labels)
        }
        width = max(len(rule.antecedents) for rule in self.rules)
        ordered = sorted(self.rules, key=lambda rule: labels.index(rule.consequent[1]))
        antecedents = np.full((len(ordered), width), one, dtype=np.intp)
        for r, rule in enumerate(ordered):
            antecedents[r, : len(rule.antecedents)] = [columns[a] for a in rule.antecedents]
        fired = [labels.index(rule.consequent[1]) for rule in ordered]
        starts = [r for r in range(len(fired)) if r == 0 or fired[r] != fired[r - 1]]
        grid = np.stack([self.output.sets[fired[r]][1](self._output_xs) for r in starts])
        return _CompiledRules(
            lo=np.array([v.domain[0] for v in self.inputs]),
            hi=np.array([v.domain[1] for v in self.inputs]),
            offsets=tuple(int(o) for o in offsets),
            antecedents=antecedents,
            label_starts=np.array(starts, dtype=np.intp),
            label_grid=grid,
        )

    def aggregate(self, rows: np.ndarray) -> np.ndarray:
        """Pointwise max of the consequent sets clipped at their firing
        strengths, for clamped input rows (n, n_inputs) -> (n, resolution)."""
        c = self._compiled
        degrees = np.empty((len(rows), c.offsets[-1] + 1))
        for j, var in enumerate(self.inputs):
            degrees[:, c.offsets[j] : c.offsets[j + 1]] = var.fuzzify(rows[:, j])
        degrees[:, -1] = 1.0
        strengths = degrees[:, c.antecedents].min(axis=2)  # min-AND, (n, rules)
        clip = np.maximum.reduceat(strengths, c.label_starts, axis=1)  # (n, fired labels)
        return np.minimum(clip[:, :, None], c.label_grid).max(axis=1)

    def infer_batch(self, X) -> np.ndarray:
        """Crisp outputs (N,) for input rows X (N, n_inputs), columns in
        ``input_names`` order; NaN where no rule fired."""
        X = np.asarray(X, dtype=float)
        names = self.input_names
        if X.ndim != 2:
            raise ValueError(f"infer_batch needs an (N, {len(names)}) matrix, got shape {X.shape}")
        if X.shape[1] < len(names):
            raise MissingInputError(f"missing input values for: {', '.join(names[X.shape[1]:])}")
        if X.shape[1] > len(names):
            raise ValueError(f"unknown input variables: {X.shape[1] - len(names)} extra columns")
        finite = np.isfinite(X)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ValueError(f"variable {names[col]!r}: non-finite input {X[row, col]}")
        c = self._compiled
        X = np.clip(X, c.lo, c.hi)
        xs = self._output_xs
        step = max(1, _CHUNK_FLOATS // c.label_grid.size)
        out = np.full(len(X), math.nan)
        for start in range(0, len(X), step):
            agg = self.aggregate(X[start : start + step])
            area = agg.sum(axis=1)
            np.divide((agg * xs).sum(axis=1), area, out=out[start : start + step], where=area != 0.0)
        return out

    def _check_names(self, given) -> None:
        """Raise unless ``given`` names exactly the input variables."""
        missing = [name for name in self.input_names if name not in given]
        if missing:
            raise MissingInputError(f"missing input values for: {', '.join(sorted(missing))}")
        if len(given) != len(self.input_names):
            unknown = sorted(set(given) - set(self.input_names))
            raise ValueError(f"unknown input variables: {', '.join(unknown)}")

    def infer(self, inputs: Mapping[str, float]) -> float:
        """Crisp output: centroid of the aggregated fuzzy output."""
        self._check_names(inputs)
        crisp = float(self.infer_batch([[inputs[name] for name in self.input_names]])[0])
        if math.isnan(crisp):
            raise DegenerateOutputError("no rule fired: aggregated output has zero area")
        return crisp

    def dominant_label(self, inputs: Mapping[str, float]) -> str:
        """Output set with the highest degree at the crisp value.

        Ties resolve to the earlier set in declaration order.
        """
        crisp = self.infer(inputs)
        degrees = np.array([float(mf(crisp)) for _, mf in self.output.sets])
        return self.output.sets[int(np.argmax(degrees))][0]

    def surface(
        self,
        var_x: str,
        var_y: str,
        fixed: Mapping[str, float] | None = None,
        resolution: int = 25,
    ) -> SurfaceGrid:
        """Evaluate the system over a resolution x resolution lattice of the
        two variables' domains, the remaining inputs pinned by ``fixed``."""
        if resolution < 2:
            raise ValueError("surface resolution must be >= 2")
        if var_x == var_y:
            raise ValueError("surface axes must be two distinct variables")
        by_name = {v.name: v for v in self.inputs}
        for name in (var_x, var_y):
            if name not in by_name:
                raise ValueError(f"unknown input variable {name!r}")
        fixed = dict(fixed or {})
        overlap = sorted(set(fixed) & {var_x, var_y})
        if overlap:
            raise ValueError(f"fixed values collide with surface axes: {', '.join(overlap)}")
        xs = np.linspace(*by_name[var_x].domain, resolution)
        ys = np.linspace(*by_name[var_y].domain, resolution)
        columns = {var_x: np.repeat(xs, resolution), var_y: np.tile(ys, resolution), **fixed}
        self._check_names(columns)
        X = np.empty((resolution * resolution, len(self.inputs)))
        for j, name in enumerate(self.input_names):
            X[:, j] = columns[name]
        z = self.infer_batch(X).reshape(resolution, resolution)
        return SurfaceGrid(var_x, var_y, xs, ys, z)

    def to_dict(self) -> dict:
        return {
            "format": "fis",
            "version": 1,
            "defuzz_resolution": self.defuzz_resolution,
            "inputs": [v.to_dict() for v in self.inputs],
            "output": self.output.to_dict(),
            "rules": [r.to_dict() for r in self.rules],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FuzzyInferenceSystem":
        check_format(data, "fis")
        return cls(
            inputs=tuple(LinguisticVariable.from_dict(v) for v in data["inputs"]),
            output=LinguisticVariable.from_dict(data["output"]),
            rules=tuple(FuzzyRule.from_dict(r) for r in data["rules"]),
            defuzz_resolution=int(data.get("defuzz_resolution", 1001)),
        )


@dataclass(frozen=True, eq=False)
class _CompiledRules:
    """A system's rulebase as arrays; see the module docstring."""

    lo: np.ndarray  # input domain bounds, (n_inputs,)
    hi: np.ndarray
    offsets: tuple[int, ...]  # input j's sets are degree columns offsets[j]:offsets[j + 1]
    antecedents: np.ndarray  # (rules, max antecedents) degree columns, rules by consequent
    label_starts: np.ndarray  # first rule of each fired label, for np.maximum.reduceat
    label_grid: np.ndarray  # (fired labels, resolution) output sets on the output grid

