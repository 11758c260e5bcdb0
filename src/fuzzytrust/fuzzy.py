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

- per input variable, one entry per run of consecutive same-shape sets:
  the shape's formula (the one its set call uses) and the run's
  parameters as arrays, so a column takes one formula call per run;
- a rule -> antecedent-column index matrix into the (N, total sets)
  degree matrix, padded with an extra column that always holds degree 1;
- the rules sorted by consequent label, so the per-label max firing
  strength is one ``np.maximum.reduceat``;
- the fired output sets sampled on the output grid, each on its
  ``support`` only, and cut by column into tiles.  Tiles are cut only
  where some set's non-zero run starts or ends; a small dynamic program
  picks the cuts that minimise, summed over tiles, one numpy call's cost
  plus labels x width.  Each tile keeps, as one dense block, only the sets
  non-zero somewhere in it; a tile where every set is 0.0 is dropped.
  The choice follows the engine's shape alone: one tile is the dense
  form (each provider engine), many tiles the per-set slice.

The clip-max runs once per tile into a zeroed (rows, resolution)
aggregate, so the area and the moment of the centroid are still summed
over every grid point, in grid order.  A fitted user engine's 25 triangles
fall into two or three tiles holding a quarter to a half of the cells of
one dense (labels, span) block.

``infer_batch`` maps an (N, n_inputs) matrix to N crisp values and
returns NaN for a row whose aggregate has zero area (no rule fired, or
no fired set is non-zero on any grid point); ``infer`` raises
``DegenerateOutputError`` there instead.  Rows are processed in chunks
in which the largest tile's (rows, labels, width) clip-max temporary and
the (rows, resolution) aggregate together hold at most ``_CHUNK_FLOATS``
floats (1 MB, half of a 2 MB per-core L2 cache), or one row when a
single row needs more.  Every reduction is row-wise, so a row's result
does not depend on the other rows or on the chunking.
"""

from __future__ import annotations

import itertools
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

# Upper bound on the floats that one chunk's largest clip-max temporary and its
# aggregate hold together (1 MB).  At 2**18 (2 MB) they spill a 2 MB L2 cache:
# on such a Xeon, 500-user compare calls scored 17-25% more users per second at
# 2**17 than at 2**18.
_CHUNK_FLOATS = 2**17

# What one more clip-max tile costs beyond its labels x width elements: about
# one numpy call, in element-ops.  It sets how finely the tiles cut the grid.
_TILE_CALL_COST = 2300


def _is_finite_number(value) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a real number, or an int past the float range
        return False


class _Shape:
    """Base of the membership shapes.  Each declares its ``fis/1`` tag ``shape``,
    its ``support`` and its one formula ``degrees(x, *params())``, vectorized
    over parameter arrays for the compiled fuzzify table and the set call.
    A set has no domain: ``LinguisticVariable`` refuses a Gaussian exponent
    that overflows at a domain end, and a bare set called there overflows."""

    support = (-math.inf, math.inf)  # a Gaussian is positive everywhere

    def __post_init__(self):
        for name, value in vars(self).items():
            if not _is_finite_number(value):
                raise ValueError(f"{self.shape} {name} must be a finite number, got {value!r}")

    def __call__(self, x) -> float | np.ndarray:
        out = self.degrees(np.asarray(x, dtype=float), *self.params())
        return float(out) if out.ndim == 0 else out

    def to_dict(self) -> dict:
        return {"shape": self.shape, **vars(self)}


@dataclass(frozen=True)
class Gaussian(_Shape):
    """Classic bell curve: degree 1 at ``center``, spread ``sigma``.  No domain: see ``_Shape``."""

    center: float
    sigma: float

    shape = "gaussian"

    def __post_init__(self):
        super().__post_init__()
        if not (self.sigma > 0.0 and self.params()[1] > 0.0):  # 2 * sigma**2 may round to 0.0
            raise ValueError(f"gaussian sigma must be > 0 with 2 * sigma**2 > 0, got {self.sigma}")

    def params(self) -> tuple:
        return self.center, 2.0 * self.sigma * self.sigma

    @staticmethod
    def degrees(x, center, denom) -> np.ndarray:  # denom = 2 * sigma**2
        return np.exp(-np.minimum((x - center) ** 2 / denom, _EXP_CLAMP))


@dataclass(frozen=True)
class TwoSidedGaussian(_Shape):
    """Plateau of degree 1 between the two centers, Gaussian lobes outside.  No domain: see ``_Shape``."""

    left_center: float
    left_sigma: float
    right_center: float
    right_sigma: float

    shape = "two_sided_gaussian"

    def __post_init__(self):
        super().__post_init__()
        _, left_denom, _, right_denom = self.params()
        if not (self.left_sigma > 0.0 and self.right_sigma > 0.0 and left_denom > 0.0 and right_denom > 0.0):
            raise ValueError("two-sided gaussian lobes need sigma > 0 with 2 * sigma**2 > 0")
        if self.left_center > self.right_center:
            raise ValueError("left_center must not exceed right_center")

    def params(self) -> tuple:
        ls, rs = self.left_sigma, self.right_sigma
        return self.left_center, 2.0 * ls * ls, self.right_center, 2.0 * rs * rs

    @staticmethod
    def degrees(x, left, left_denom, right, right_denom) -> np.ndarray:
        # on the plateau x - clip(x) is exactly 0, so the degree is exactly 1
        return Gaussian.degrees(x, np.minimum(np.maximum(x, left), right), np.where(x < left, left_denom, right_denom))


@dataclass(frozen=True)
class Triangular(_Shape):
    """Linear rise to 1 at ``apex``, linear fall; zero outside [left, right].

    ``left == apex`` or ``apex == right`` gives a half-triangle whose
    vertical edge sits on the apex.
    """

    left: float
    apex: float
    right: float

    shape = "triangular"

    def __post_init__(self):
        super().__post_init__()
        if not (self.left <= self.apex <= self.right):
            raise ValueError("triangular needs left <= apex <= right")
        if self.left == self.right:
            raise ValueError("triangular support must have positive width")

    @property
    def support(self) -> tuple[float, float]:
        return self.left, self.right

    def params(self) -> tuple:
        return self.left, self.apex, self.right

    @staticmethod
    def degrees(x, left, apex, right) -> np.ndarray:
        # a half-triangle's slope divides by zero and is discarded for the
        # step; a slope over a subnormal width is inf, then clipped
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rise = np.where(apex > left, (x - left) / (apex - left), x >= apex)
            fall = np.where(right > apex, (right - x) / (right - apex), x <= apex)
        return np.minimum(np.maximum(np.minimum(rise, fall), 0.0), 1.0)


MembershipFunction = Union[Gaussian, TwoSidedGaussian, Triangular]

_MF_SHAPES = {cls.shape: cls for cls in (Gaussian, TwoSidedGaussian, Triangular)}


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
        lo, hi = self.domain
        for end in (lo, hi):
            if not _is_finite_number(end):
                raise ValueError(f"variable {self.name!r}: domain end must be a finite number, got {end!r}")
        lo, hi = float(lo), float(hi)
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "sets", tuple((label, mf) for label, mf in self.sets))
        if not (lo < hi):
            raise ValueError(f"variable {self.name!r}: domain must satisfy lo < hi")
        if not self.sets:
            raise ValueError(f"variable {self.name!r}: needs at least one set")
        labels = [label for label, _ in self.sets]
        if len(set(labels)) != len(labels):
            raise ValueError(f"variable {self.name!r}: duplicate set labels")
        for label, mf in self.sets:
            low, high = mf.support
            if not (low < hi and high > lo):
                raise ValueError(f"variable {self.name!r}: set {label!r} has no support in the domain")
            if isinstance(mf, (Gaussian, TwoSidedGaussian)):
                # the exponent (x - center)**2 / denom in ``degrees`` is largest at a domain end;
                # a Gaussian is a two-sided one whose plateau is its center
                params = mf.params()
                left, left_denom, right, right_denom = params if len(params) == 4 else params * 2
                with np.errstate(over="ignore"):
                    far = max((np.float64(x) - min(max(x, left), right)) ** 2
                              / (left_denom if x < left else right_denom) for x in (lo, hi))
                if not math.isfinite(far):
                    raise ValueError(f"variable {self.name!r}: set {label!r} is too narrow for the domain:"
                                     " (x - center)**2 / (2 * sigma**2) overflows at a domain end")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.sets)

    def mf(self, label: str) -> MembershipFunction:
        for set_label, mf in self.sets:
            if set_label == label:
                return mf
        raise KeyError(f"variable {self.name!r} has no set {label!r}")

    @cached_property
    def _table(self) -> tuple[tuple, ...]:
        """(formula, parameter arrays) per run of consecutive same-shape sets, in order."""
        return tuple(
            (shape.degrees, tuple(np.array(p, dtype=float) for p in zip(*(mf.params() for mf in run))))
            for shape, run in itertools.groupby((mf for _, mf in self.sets), key=type)
        )

    def fuzzify(self, x: np.ndarray) -> np.ndarray:
        """Degrees of the in-domain inputs ``x`` (shape (N,)) in every set,
        shape (N, n_sets), columns in set declaration order."""
        col = x[:, None]
        table = self._table
        if len(table) == 1:  # the common case, kept free of a list and a copy: it runs once per input per chunk
            degrees, params = table[0]
            return degrees(col, *params)
        return np.concatenate([degrees(col, *params) for degrees, params in table], axis=1)

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
        var, label = self.consequent
        object.__setattr__(self, "consequent", (var, label))
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
        if type(self.defuzz_resolution) is not int or self.defuzz_resolution < 2:
            raise ValueError(f"defuzz_resolution must be an integer >= 2, got {self.defuzz_resolution!r}")
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
        xs = self._output_xs
        grid = np.zeros((len(starts), len(xs)))
        for row, r in zip(grid, starts):  # each set sampled on its support only: it is 0.0 outside
            mf = self.output.sets[fired[r]][1]
            low, high = mf.support
            inside = slice(xs.searchsorted(low, "left"), xs.searchsorted(high, "right"))
            row[inside] = mf(xs[inside])
        tiles = _column_tiles(grid)
        largest = max((block.size for _, _, block in tiles), default=0)
        return _CompiledRules(
            lo=np.array([v.domain[0] for v in self.inputs]),
            hi=np.array([v.domain[1] for v in self.inputs]),
            offsets=tuple(int(o) for o in offsets),
            antecedents=antecedents,
            label_starts=np.array(starts, dtype=np.intp),
            tiles=tiles,
            rows_per_chunk=max(1, _CHUNK_FLOATS // (largest + len(xs))),
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
        agg = np.zeros((len(rows), self.defuzz_resolution))
        for columns, tile_labels, block in c.tiles:
            np.minimum(clip[:, tile_labels, None], block).max(axis=1, out=agg[:, columns])
        return agg

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
        X = np.minimum(np.maximum(X, c.lo), c.hi)
        xs = self._output_xs
        step = c.rows_per_chunk
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
        return SurfaceGrid(xs, ys, z)

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
            defuzz_resolution=data.get("defuzz_resolution", 1001),
        )


def _column_tiles(grid: np.ndarray) -> tuple:
    """The clip-max tiles of ``grid`` (fired labels, resolution): column
    ranges cut where some set's non-zero run starts or ends, chosen to
    minimise the sum over tiles of ``_TILE_CALL_COST`` + labels x width.
    Each tile keeps the sets non-zero somewhere in it; no tile is kept
    where every set is 0.0."""
    non_zero = grid != 0.0
    live = np.flatnonzero(non_zero.any(axis=1))
    first = non_zero[live].argmax(axis=1)
    end = grid.shape[1] - non_zero[live, ::-1].argmax(axis=1)  # one past the last non-zero column
    # a set: np.unique's first call in a process grows its resident memory by ~1.7 MB (numpy 2.4)
    cuts = np.array(sorted({*first.tolist(), *end.tolist()}), dtype=np.intp)
    # sets in [cuts[i], cuts[j]) for i < j: those starting before cuts[j], less those ending by cuts[i]
    count = np.sort(first).searchsorted(cuts)[None, :] - np.sort(end).searchsorted(cuts, "right")[:, None]
    cost = np.where(count > 0, _TILE_CALL_COST + count * (cuts[None, :] - cuts[:, None]), 0)
    best = np.zeros(len(cuts), dtype=cost.dtype)  # cheapest tiling of [cuts[0], cuts[j])
    back = np.zeros(len(cuts), dtype=np.intp)  # where its last tile starts
    for j in range(1, len(cuts)):
        total = best[:j] + cost[:j, j]
        back[j] = total.argmin()
        best[j] = total[back[j]]
    tiles = []
    j = len(cuts) - 1
    while j > 0:
        a, b = int(cuts[back[j]]), int(cuts[j])
        labels = live[(first < b) & (end > a)]
        if labels.size:
            if labels[-1] - labels[0] == labels.size - 1:  # a run of labels: a view, not a gather
                labels = slice(int(labels[0]), int(labels[-1]) + 1)
            tiles.append((slice(a, b), labels, grid[labels, a:b].copy()))
        j = back[j]
    return tuple(reversed(tiles))


@dataclass(frozen=True, eq=False)
class _CompiledRules:
    """A system's rulebase as arrays; see the module docstring."""

    lo: np.ndarray  # input domain bounds, (n_inputs,)
    hi: np.ndarray
    offsets: tuple[int, ...]  # input j's sets are degree columns offsets[j]:offsets[j + 1]
    antecedents: np.ndarray  # (rules, max antecedents) degree columns, rules by consequent
    label_starts: np.ndarray  # first rule of each fired label, for np.maximum.reduceat
    # (grid columns, fired labels, (labels, width) block) per column tile, in grid
    # order; the block holds the fired sets non-zero somewhere in the tile, sampled
    # on its columns.  Every fired set is 0.0 outside the tiles' columns.
    tiles: tuple[tuple[slice, Union[slice, np.ndarray], np.ndarray], ...]
    rows_per_chunk: int  # the largest tile's clip-max temporary plus the aggregate hold <= _CHUNK_FLOATS

