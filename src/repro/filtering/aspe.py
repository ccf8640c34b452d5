"""ASPE encrypted content-based filtering.

Implements asymmetric scalar-product-preserving encryption (ASPE, Wong et
al., adapted to pub/sub filtering by Choi et al. — the paper's ref [11]).
Matching happens on ciphertexts only; neither publication attribute values
nor subscription constants are revealed to the matching host.

Construction
------------
Let ``d`` be the number of attributes.  The secret key is a random
invertible matrix ``M`` of size ``n×n`` with ``n = d + 3`` (d attribute
coordinates, one constant coordinate, two noise coordinates).

* A publication with attributes ``x ∈ R^d`` is encoded as the plaintext
  vector ``u = r · (x₁, …, x_d, 1, α, γ)`` with secret per-encryption
  randomness ``r > 0`` and noise ``α, γ``; its ciphertext is ``û = Mᵀ u``.
* A subscription predicate ``x_i op c`` is encoded as
  ``q = s · (δ₁, …, δ_d, −c, 0, 0)`` with ``δ_j = 1`` iff ``j = i`` and
  secret ``s > 0``; its ciphertext is ``q̂ = M⁻¹ q``.

Then ``û · q̂ = uᵀ M M⁻¹ q = r·s·(x_i − c)``: the *sign* of the inner
product decides the comparison while the magnitude is blinded by ``r·s``
and the ciphertext coordinates are mixed by ``M``.  Each predicate check is
an ``n``-dimensional inner product, so matching one publication against a
subscription with ``k`` predicates costs ``O(k·d)`` multiplications —
``O(d²)`` for the typical ``k ≈ d``, matching the paper's cost statement.

Equality predicates are evaluated as the conjunction of ``≥`` and ``≤``
using two query vectors.  Floating-point noise from the two matrix
multiplications is absorbed by a relative tolerance on the decision
boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import FilteringLibrary
from .predicates import Op, Predicate, PredicateSet
from .store.chunks import _MIN_CAPACITY, ChunkedMatrixStore
from .store.config import StoreConfig

__all__ = [
    "AspeKey",
    "AspeCipher",
    "EncryptedPublication",
    "EncryptedPredicate",
    "EncryptedSubscription",
    "AspeLibrary",
    "match_packed",
]

# Boundary tolerance: |û·q̂| below tol·scale counts as "equal".  The scale
# is carried with each ciphertext pair via the blinding bounds.  The value
# must sit between the dot-product rounding error (~n·eps·‖û‖·‖q̂‖ ≈
# 3e-15·‖û‖·‖q̂‖) and the smallest genuine decision margin, which is
# r·s·|value − constant| ≥ 0.25·|value − constant| and does *not* grow
# with the ciphertext norms — a tolerance much above the rounding error
# flips true non-matches near the boundary into matches.
_REL_TOL = 1e-13

@dataclass(frozen=True)
class AspeKey:
    """The secret key: dimension and the invertible mixing matrix."""

    dimensions: int
    matrix: np.ndarray
    inverse: np.ndarray

    @classmethod
    def generate(cls, dimensions: int, rng: Optional[random.Random] = None) -> "AspeKey":
        """Generate a fresh key for a ``dimensions``-attribute schema."""
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        rng = rng or random.Random()
        n = dimensions + 3
        np_rng = np.random.default_rng(rng.getrandbits(63))
        while True:
            matrix = np_rng.uniform(-1.0, 1.0, size=(n, n))
            # Reject ill-conditioned draws to keep decisions numerically crisp.
            if np.linalg.cond(matrix) < 1e4:
                break
        inverse = np.linalg.inv(matrix)
        return cls(dimensions=dimensions, matrix=matrix, inverse=inverse)

    @property
    def cipher_dimensions(self) -> int:
        return self.dimensions + 3


@dataclass(frozen=True)
class EncryptedPublication:
    """Ciphertext of one publication (``û = Mᵀ u``)."""

    vector: np.ndarray


@dataclass(frozen=True)
class EncryptedPredicate:
    """Ciphertext of one predicate: query vector(s) + comparison direction.

    ``op_code`` keeps only the comparison *direction and strictness* —
    which attribute and constant are compared is hidden inside the vector.
    """

    op_code: str  # one of 'gt', 'ge', 'lt', 'le'
    vector: np.ndarray


@dataclass(frozen=True)
class EncryptedSubscription:
    """Ciphertext of a subscription: conjunction of encrypted predicates."""

    predicates: Tuple[EncryptedPredicate, ...]

    @property
    def size_bytes(self) -> int:
        return sum(p.vector.nbytes + 24 for p in self.predicates) + 16


class AspeCipher:
    """Encrypts publications and subscriptions under an :class:`AspeKey`."""

    def __init__(self, key: AspeKey, rng: Optional[random.Random] = None):
        self.key = key
        self._rng = rng or random.Random()

    # -- encryption -----------------------------------------------------------

    def encrypt_publication(self, attributes: Sequence[float]) -> EncryptedPublication:
        d = self.key.dimensions
        if len(attributes) != d:
            raise ValueError(f"expected {d} attributes, got {len(attributes)}")
        r = self._rng.uniform(0.5, 2.0)
        alpha = self._rng.uniform(-10.0, 10.0)
        gamma = self._rng.uniform(-10.0, 10.0)
        u = np.empty(d + 3)
        u[:d] = attributes
        u[d] = 1.0
        u[d + 1] = alpha
        u[d + 2] = gamma
        u *= r
        return EncryptedPublication(vector=self.key.matrix.T @ u)

    def encrypt_predicate(self, predicate: Predicate) -> List[EncryptedPredicate]:
        """Encrypt one predicate (two ciphertexts for equality)."""
        d = self.key.dimensions
        if predicate.attribute >= d:
            raise ValueError(
                f"predicate attribute {predicate.attribute} outside schema of {d}"
            )
        if predicate.op is Op.EQ:
            return [
                self._encrypt_comparison(predicate.attribute, predicate.constant, "ge"),
                self._encrypt_comparison(predicate.attribute, predicate.constant, "le"),
            ]
        op_code = {Op.GT: "gt", Op.GE: "ge", Op.LT: "lt", Op.LE: "le"}[predicate.op]
        return [self._encrypt_comparison(predicate.attribute, predicate.constant, op_code)]

    def encrypt_subscription(self, predicate_set: PredicateSet) -> EncryptedSubscription:
        encrypted: List[EncryptedPredicate] = []
        for predicate in predicate_set:
            encrypted.extend(self.encrypt_predicate(predicate))
        return EncryptedSubscription(predicates=tuple(encrypted))

    def encrypt_subscriptions(
        self, predicate_sets: Sequence[PredicateSet]
    ) -> List[EncryptedSubscription]:
        """Encrypt many subscriptions with one matrix-matrix product.

        Builds every (EQ-expanded) query vector into one stacked block
        and applies ``M⁻¹`` as a single gemm — the trace-scale (1M+)
        subscription generation path.  Per-predicate blinding factors
        draw from the same stream in the same order as the scalar path,
        so the construction (and its security argument) is unchanged.
        """
        d = self.key.dimensions
        op_codes = {Op.GT: "gt", Op.GE: "ge", Op.LT: "lt", Op.LE: "le"}
        specs: List[Tuple[str, int, float]] = []
        counts: List[int] = []
        for predicate_set in predicate_sets:
            before = len(specs)
            for predicate in predicate_set:
                if predicate.attribute >= d:
                    raise ValueError(
                        f"predicate attribute {predicate.attribute} outside "
                        f"schema of {d}"
                    )
                if predicate.op is Op.EQ:
                    specs.append(("ge", predicate.attribute, predicate.constant))
                    specs.append(("le", predicate.attribute, predicate.constant))
                else:
                    specs.append(
                        (op_codes[predicate.op], predicate.attribute, predicate.constant)
                    )
            counts.append(len(specs) - before)
        queries = np.zeros((len(specs), d + 3))
        rng = self._rng
        for row, (_, attribute, constant) in enumerate(specs):
            s = rng.uniform(0.5, 2.0)
            queries[row, attribute] = 1.0
            queries[row, d] = -constant
            queries[row] *= s
        vectors = queries @ self.key.inverse.T
        out: List[EncryptedSubscription] = []
        row = 0
        for count in counts:
            out.append(
                EncryptedSubscription(
                    predicates=tuple(
                        EncryptedPredicate(
                            op_code=specs[row + i][0], vector=vectors[row + i]
                        )
                        for i in range(count)
                    )
                )
            )
            row += count
        return out

    def encrypt_publications(
        self, attribute_rows: Sequence[Sequence[float]]
    ) -> List[EncryptedPublication]:
        """Encrypt many publications with one matrix-matrix product."""
        d = self.key.dimensions
        rows = np.asarray(attribute_rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != d:
            raise ValueError(
                f"expected (count, {d}) attribute rows, got {rows.shape}"
            )
        count = rows.shape[0]
        u = np.empty((count, d + 3))
        u[:, :d] = rows
        u[:, d] = 1.0
        rng = self._rng
        for i in range(count):
            r = rng.uniform(0.5, 2.0)
            u[i, d + 1] = rng.uniform(-10.0, 10.0)
            u[i, d + 2] = rng.uniform(-10.0, 10.0)
            u[i] *= r
        encrypted = u @ self.key.matrix
        return [EncryptedPublication(vector=vector) for vector in encrypted]

    def _encrypt_comparison(self, attribute: int, constant: float, op_code: str) -> EncryptedPredicate:
        d = self.key.dimensions
        s = self._rng.uniform(0.5, 2.0)
        q = np.zeros(d + 3)
        q[attribute] = 1.0
        q[d] = -constant
        q *= s
        return EncryptedPredicate(op_code=op_code, vector=self.key.inverse @ q)


def _decide(op_code: str, product: float, tolerance: float) -> bool:
    if op_code == "gt":
        return product > tolerance
    if op_code == "ge":
        return product >= -tolerance
    if op_code == "lt":
        return product < -tolerance
    if op_code == "le":
        return product <= tolerance
    raise ValueError(f"unknown op code {op_code!r}")


def match_encrypted(
    publication: EncryptedPublication, subscription: EncryptedSubscription
) -> bool:
    """Evaluate the encrypted conjunction: does the publication match?"""
    u = publication.vector
    scale = float(np.linalg.norm(u)) + 1.0
    for predicate in subscription.predicates:
        product = float(u @ predicate.vector)
        tolerance = _REL_TOL * scale * (float(np.linalg.norm(predicate.vector)) + 1.0)
        if not _decide(predicate.op_code, product, tolerance):
            return False
    return True


#: Comparison direction per op code: +1 keeps the product sign, −1 flips
#: it, so every decision reduces to ``sign·product {>, ≥−} tolerance``.
_OP_SIGN = {"gt": 1.0, "ge": 1.0, "lt": -1.0, "le": -1.0}
#: Strict comparisons exclude the tolerance band, non-strict include it.
_OP_STRICT = {"gt": True, "ge": False, "lt": True, "le": False}


def _tolerances(block: np.ndarray, strict: np.ndarray) -> np.ndarray:
    """The sign-folded tolerance column of packed rows.

    The base ``_REL_TOL · (‖q̂‖ + 1)`` is positive for strict rows and
    negated for non-strict ones, and the decision threshold is it times
    the publication's scale factor.  Folding the decision side into the
    sign is exact (IEEE negation commutes with scaling: ``s·(−a) ==
    −(s·a)`` bit-for-bit) and lets the kernel compare all rows against
    one threshold.  Per-row norms reduce
    element-independently, so staging a batch or one subscription at a
    time gives bit-identical tolerances.
    """
    base = _REL_TOL * (np.linalg.norm(block, axis=1) + 1.0)
    return np.where(strict, base, -base)


#: Rows per kernel tile: :func:`match_packed`'s boolean temporaries are
#: (tile × B), so scratch memory does not grow with the library.  8192
#: rows keep a 128-publication tile's satisfied matrix at 1 MB and still
#: amortize the per-tile call overhead.
_TILE_ROWS = 8192

#: Cells per product block: a tile's gemm and compares run ``_BLOCK_CELLS //
#: B`` rows at a time, so the only float temporary is 512 KiB and still in
#: L2 when the compares read it (sized by the sweep in EXPERIMENTS.md).
_BLOCK_CELLS = 1 << 16

#: One kernel tile: ``(row_lo, row_hi, span_lo, span_hi, tables, tol_max)``.
GatherTile = Tuple[int, int, int, int, Tuple[np.ndarray, ...], float]


def _gather_tiles(
    starts: np.ndarray, stops: np.ndarray, tol_signed: np.ndarray,
    row_lo: int, row_hi: int, step: int, base: int = 0,
) -> List[GatherTile]:
    """Gather tables for rows ``[row_lo, row_hi)`` in tiles of ``step`` rows.

    The rows belong to a block that starts at row ``base``: ``tol_signed``
    is the block's tolerance column, and a tile's ``row_lo``/``row_hi`` are
    relative to the block, which is how the kernel addresses its
    ``matrix``; span numbers stay those of ``starts``.

    ``tables[k][s]`` of a tile is the row, in the tile's satisfied matrix,
    of the ``k``-th row that span ``span_lo + s`` has *inside the tile*;
    row 0 is a sentinel that always reads true and stands in where the
    span has no ``k``-th row there.  ``starts`` is sorted and spans are
    disjoint, so ``stops`` is sorted too and a tile's span range is two
    binary searches.  ``tol_max`` is ``max|tol_signed|`` over the tile's
    rows.
    """
    tiles: List[GatherTile] = []
    for tile_lo in range(row_lo, row_hi, step):
        tile_hi = min(tile_lo + step, row_hi)
        span_lo = int(np.searchsorted(stops, tile_lo, side="right"))
        span_hi = int(np.searchsorted(starts, tile_hi, side="left"))
        tables: Tuple[np.ndarray, ...] = ()
        if span_lo < span_hi:
            first = np.maximum(starts[span_lo:span_hi], tile_lo)
            first -= tile_lo - 1
            last = np.minimum(stops[span_lo:span_hi], tile_hi)
            last -= tile_lo - 1
            tables = tuple(
                np.where(first + k < last, first + k, 0)
                for k in range(int((last - first).max()))
            )
        lo, hi = tile_lo - base, tile_hi - base
        tol_max = float(np.abs(tol_signed[lo:hi]).max())
        tiles.append((lo, hi, span_lo, max(span_lo, span_hi), tables, tol_max))
    return tiles


def _batch_constants(batch: np.ndarray) -> Tuple[np.ndarray, float, np.ndarray]:
    """``(scales, max scale, columns)`` of a ``(B, n)`` batch — what every
    kernel call on the batch shares."""
    scales = np.linalg.norm(batch, axis=1)
    scales += 1.0
    # A C-contiguous (n, B) copy: OpenBLAS takes its unpacked small-matrix
    # path only for untransposed operands, and a product block fits it.
    return scales, float(scales.max()), np.ascontiguousarray(batch.T)


def match_packed(
    matrix: np.ndarray,
    strict: np.ndarray,
    tol_signed: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    batch: np.ndarray,
    workspace,
    *,
    tiles: Optional[Sequence[GatherTile]] = None,
    constants: Optional[Tuple[np.ndarray, float, np.ndarray]] = None,
    out: Optional[np.ndarray] = None,
    _tile_rows: Optional[int] = None,
) -> np.ndarray:
    """Evaluate packed (direction-folded) predicate rows against a batch.

    The one decision kernel: ``matrix`` is a C-contiguous ``(rows, n)``
    block of direction-folded query-vector rows, read in place (a
    chunk-store block is contiguous), with per-row ``strict`` flags and
    sign-folded tolerance bases ``tol_signed``; ``starts``/``stops`` are
    sorted per-span row offsets *relative to this block* (clipped to it
    where a span continues in a neighbouring block); ``batch`` is the
    ``(B, n)`` stack of publication ciphertext vectors.  Returns the
    subscription-major ``(len(starts), B)`` boolean matrix of span
    conjunctions over the rows each span has in this block — ANDed into
    ``out`` when the caller passes one, which is how the blocks of a store
    accumulate into one matrix.

    Rows are visited a tile at a time and, inside a tile, a product block
    of ``_BLOCK_CELLS`` cells at a time: one gemm and two compares against
    the tile's *scalar* ``bound = max(scale)·max|tol_signed|``.  Rounded
    multiplication is monotone, so every cell's threshold
    ``scale·tol_signed`` lies within ``±bound``: ``product > bound`` is
    satisfied and ``product < −bound`` is not, strict row or not (DESIGN.md
    §2 has the argument).  A block with a cell in between —
    every block of a tile whose bound is NaN or infinite — is settled by
    the exact per-cell comparison.  A span's conjunction is the AND of
    ``take``-gathers of the satisfied matrix at the span's first, second,
    … row (B contiguous bytes per span; a sentinel always-true row stands
    in past a span's end), AND-accumulated across the tiles a span
    straddles.  ``tiles`` supplies cached gather tables
    (:func:`_gather_tiles`, whose span numbers index the result's rows),
    and then only the *number* of spans is read from ``starts`` — nothing,
    with ``out``; ``constants`` supplies the batch's
    :func:`_batch_constants`, for a caller that runs many blocks against
    one batch.  By default both are derived here.

    Every cell decides as :func:`match_encrypted` decides that pair,
    whatever shares its batch or tile: a NaN publication matches no
    non-empty subscription, an infinite vector or predicate norm compares
    against an infinite tolerance, and the ordinary cells are unaffected.

    This function is *pure* — a deterministic function of its array
    arguments: a row's product reduces only over the ciphertext width and
    its decision depends on no other row, so neither tiling, product
    blocks nor row-range chunking can change one.  ``workspace``
    supplies the scratch buffers (``(name, shape, dtype) -> ndarray``,
    contents stale): reused ones or fresh ``np.empty`` ones decide alike.
    """
    count = batch.shape[0]
    if tiles is None:
        tiles = _gather_tiles(
            starts, stops, tol_signed, 0, matrix.shape[0], _tile_rows or _TILE_ROWS
        )
    scales, top, columns = constants or _batch_constants(batch)
    step = max(_BLOCK_CELLS // count, 1)
    block_shape = (min(step, matrix.shape[0]), count)
    product_block = workspace("products", block_shape, np.float64)
    below_block = workspace("below", block_shape, np.bool_)
    ok = np.ones((starts.size, count), dtype=np.bool_) if out is None else out
    for row_lo, row_hi, span_lo, span_hi, tables, tol_max in tiles:
        if span_lo == span_hi:
            continue  # no span has a row in this tile
        bound = top * tol_max
        padded = workspace("satisfied", (row_hi - row_lo + 1, count), np.bool_)
        padded[0] = True  # the sentinel row
        for lo in range(row_lo, row_hi, step):
            hi = min(lo + step, row_hi)
            products = product_block[: hi - lo]
            np.matmul(matrix[lo:hi], columns, out=products)
            satisfied = padded[lo - row_lo + 1 : hi - row_lo + 1]
            np.greater(products, bound, out=satisfied)
            below = below_block[: hi - lo]
            np.less(products, -bound, out=below)
            if np.count_nonzero(satisfied) + np.count_nonzero(below) != products.size:
                # Settle the block: strict rows require product > scale·base,
                # non-strict rows product ≥ −scale·base (base = |tol_signed|).
                # With the sign folded into the threshold both are "product
                # > threshold", plus equality for the non-strict rows only.
                thresholds = workspace("thresholds", products.shape, np.float64)
                np.multiply(tol_signed[lo:hi, None], scales, out=thresholds)
                np.greater(products, thresholds, out=satisfied)
                np.equal(products, thresholds, out=below)
                np.logical_and(below, ~strict[lo:hi, None], out=below)
                np.logical_or(satisfied, below, out=satisfied)
        spans = span_hi - span_lo
        conjunction = workspace("conjunction", (spans, count), np.bool_)
        # (Table entries are valid rows; "clip" only spares numpy the
        # defensive copy of ``out`` that the default mode makes.)
        padded.take(tables[0], axis=0, out=conjunction, mode="clip")
        if len(tables) > 1:
            gathered = workspace("gathered", (spans, count), np.bool_)
            for table in tables[1:]:
                padded.take(table, axis=0, out=gathered, mode="clip")
                np.logical_and(conjunction, gathered, out=conjunction)
        so_far = ok[span_lo:span_hi]
        np.logical_and(so_far, conjunction, out=so_far)
    return ok


def match_lists(
    ok: np.ndarray, ids: Sequence[int], positions: Optional[np.ndarray]
) -> List[List[int]]:
    """Per-publication id lists, in store order, of a ``(spans, B)``
    conjunction matrix.  ``positions`` is ``None`` when row ``j`` *is*
    ``ids[j]``; otherwise rows scatter through it into a vacuous-true
    matrix over the stored ids, so empty subscriptions match."""
    count = ok.shape[1]
    if positions is not None:
        rows = ok
        ok = np.ones((len(ids), count), dtype=np.bool_)
        ok[positions] = rows
    # (1-D nonzero is an order of magnitude faster than 2-D on bools.)
    matched, owners = np.divmod(np.flatnonzero(ok), count)
    order = np.argsort(owners, kind="stable")
    flat = list(map(ids.__getitem__, matched[order].tolist()))
    bounds = np.searchsorted(owners[order], np.arange(count + 1)).tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class _SpanIndex:
    """Span-reduction index of one library, with its cached gather tiles.

    ``ids`` lists stored subscription ids in insertion order, which is
    also the order of their rows; ``starts``/``stops`` hold the row
    offsets of all *non-empty* spans; ``positions[j]`` is the index into
    ``ids`` of the span whose conjunction lands in column ``j``.  Empty
    spans are left out — their subscriptions match vacuously.  ``dense``
    says column ``j`` simply *is* ``ids[j]`` (no empty subscription).
    ``tiles[i]`` caches the kernel's
    gather tiles for the store's ``i``-th block, rows relative to it.
    """

    __slots__ = ("view", "dense", "tiles", "_table")

    def __init__(self, ids: List[int], table: np.ndarray) -> None:
        #: (3, capacity) backing of positions / starts / stops.
        self._table = table
        #: ``(ids, positions, starts, stops)``, the arrays cut to the spans.
        self.view = (ids, *table)
        self.dense = table.shape[1] == len(ids)
        self.tiles: List[List[GatherTile]] = []

    def append(self, sub_id: int, start: int, stop: int) -> None:
        """Index a newly stored subscription — O(1) amortized.

        Its rows sit past every indexed row and its id past every indexed
        id, so both orders hold and every cached tile stays what it was.
        Arrays handed out earlier are never written: an append lands past
        their end, or in a grown copy.
        """
        ids = self.view[0]
        ids.append(sub_id)
        if stop <= start:
            self.dense = False
            return
        spans = self.view[2].size
        table = self._table
        if spans == table.shape[1]:
            table = np.empty((3, max(2 * spans, _MIN_CAPACITY)), dtype=np.int64)
            table[:, :spans] = self._table
            self._table = table
        table[:, spans] = (len(ids) - 1, start, stop)
        self.view = (ids, *table[:, : spans + 1])

    def cover(self, position: int, block) -> List[GatherTile]:
        """The kernel tiles of ``block``, the store's ``position``-th.

        Blocks come in row order and tiles never cross one: a tile is one
        contiguous run of at most ``_TILE_ROWS`` rows of one chunk.  Rows
        appended since the last call extend the block's short last tile
        (it is rebuilt) before they start a new one.
        """
        if position == len(self.tiles):
            self.tiles.append([])
        tiles = self.tiles[position]
        rows = block.stop - block.start
        if not tiles or tiles[-1][1] < rows:
            if tiles and tiles[-1][1] - tiles[-1][0] < _TILE_ROWS:
                tiles.pop()
            covered = tiles[-1][1] if tiles else 0
            _, _, starts, stops = self.view
            tiles += _gather_tiles(
                starts, stops, block.tol_signed, block.start + covered,
                block.stop, _TILE_ROWS, block.start,
            )
        return tiles


class AspeLibrary(FilteringLibrary):
    """Filtering library over ASPE ciphertexts.

    Because ciphertexts reveal nothing exploitable for indexing, every
    publication must be matched against *every* stored subscription — the
    property that makes encrypted filtering computationally heavy and the
    paper's experiments workload-independent.

    The predicate ciphertexts of all stored subscriptions live as packed
    rows in one append-only :class:`ChunkedMatrixStore`: ``store`` appends
    a subscription's rows to the store's last chunk, at amortized
    O(rows appended), never a full repack.  A subscription is never
    removed or replaced — an id already stored is refused.  Rows are stored
    *direction-folded* (a ``lt``/``le`` query vector is negated on the way
    in, exact in IEEE arithmetic) beside their precomputed tolerances, and
    :meth:`match` (a batch of one) and :meth:`match_batch` both decide
    through the one row-tiled kernel, :func:`match_packed`, a store block
    at a time.
    """

    def __init__(self, store_config: Optional[StoreConfig] = None) -> None:
        self._subs: Dict[int, EncryptedSubscription] = {}
        #: How the packed rows are stored: ``chunked`` (the default) keeps
        #: the row chunks in RAM, ``mmap`` over spill files under a
        #: residency budget so the matrix can exceed RAM (see
        #: repro.filtering.store).
        self._store_config = (
            store_config if store_config is not None else StoreConfig()
        )
        self._chunks = ChunkedMatrixStore(self._store_config)
        self._telemetry = None
        #: sub_id → [start, stop) row span in the packed matrix.
        self._spans: Dict[int, Tuple[int, int]] = {}
        #: Lazily built span index and gather tiles (see _span_index).
        self._index: Optional[_SpanIndex] = None
        #: Reusable scratch buffers for the kernel (name → flat array): the
        #: product block and the (tile × B) boolean temporaries defeat
        #: numpy's small-allocation cache, so reusing them removes per-call
        #: mmap churn.
        self._ws: Dict[str, np.ndarray] = {}
        #: Bumped on every semantic mutation (store/import): equal epochs
        #: of one library describe identical matching decisions.
        self._epoch = 0
        # Instrumentation: stores append without a full repack, and a store
        # after a match extends the span index instead of rebuilding it.
        self.full_pack_count = 0
        self.index_rebuild_count = 0

    @property
    def epoch(self) -> int:
        """Counter of semantic mutations: matching is a pure function of
        ``(this library, epoch, ciphertext)``, so a result computed at one
        epoch is the result for as long as the epoch stands."""
        return self._epoch

    @property
    def _rows(self) -> int:
        """Store rows in use."""
        return self._chunks.rows

    # -- storage --------------------------------------------------------------

    def store(self, sub_id: int, filter_data: EncryptedSubscription) -> None:
        """Store a subscription; ``ValueError`` if ``sub_id`` is stored."""
        if not isinstance(filter_data, EncryptedSubscription):
            raise TypeError(
                f"expected EncryptedSubscription, got {type(filter_data).__name__}"
            )
        if sub_id in self._subs:
            raise ValueError(f"subscription {sub_id} is already stored")
        self._subs[sub_id] = filter_data
        self._append_rows(sub_id, filter_data)
        if self._index is not None:
            self._index.append(sub_id, *self._spans[sub_id])
        self._epoch += 1

    # -- matching -------------------------------------------------------------

    def match(self, publication_data: EncryptedPublication) -> List[int]:
        if not isinstance(publication_data, EncryptedPublication):
            raise TypeError(
                f"expected EncryptedPublication, got {type(publication_data).__name__}"
            )
        return self._match_lists(publication_data.vector[None, :])[0]

    def match_batch(
        self, publications: Sequence[EncryptedPublication]
    ) -> List[List[int]]:
        for publication in publications:
            if not isinstance(publication, EncryptedPublication):
                raise TypeError(
                    f"expected EncryptedPublication, got {type(publication).__name__}"
                )
        if not publications:
            return []
        return self._match_lists(np.stack([p.vector for p in publications]))

    def _match_lists(self, batch: np.ndarray) -> List[List[int]]:
        """Matching ids, in store order, per row of the ``(B, n)`` batch —
        the body of :meth:`match` and :meth:`match_batch` alike, so neither
        public method runs inside the other.

        Every resident block is visited (and faulted) in row order whether
        or not a live span touches it; a span cut by a chunk boundary is
        the AND of its parts.  Only one block's rows are ever held.
        """
        index = self._span_index()
        ids, positions, starts, stops = index.view
        if starts.size == 0:
            # Nothing, or only empty (vacuously true) subscriptions, stored.
            return [list(ids) for _ in range(batch.shape[0])]
        ok = np.ones((starts.size, batch.shape[0]), dtype=np.bool_)
        constants = _batch_constants(batch)
        for position, block in enumerate(self._chunks.blocks()):
            match_packed(
                block.matrix,
                block.strict,
                block.tol_signed,
                starts,
                stops,
                batch,
                self._workspace,
                tiles=index.cover(position, block),
                constants=constants,
                out=ok,
            )
        return match_lists(ok, ids, None if index.dense else positions)

    # -- bookkeeping ----------------------------------------------------------

    def subscription_count(self) -> int:
        return len(self._subs)

    def state_size_bytes(self) -> int:
        return sum(s.size_bytes for s in self._subs.values())

    def export_state(self) -> Dict[int, EncryptedSubscription]:
        return dict(self._subs)

    def import_state(self, state: Dict[int, EncryptedSubscription]) -> None:
        self._subs = {}
        self._spans = {}
        self._chunks.clear()
        self._index = None
        self._ws = {}
        self._epoch += 1  # one epoch step for the import
        for sub_id, subscription in state.items():
            self._subs[sub_id] = subscription
            self._append_rows(sub_id, subscription)
        self.full_pack_count += 1

    # -- bulk ingest -----------------------------------------------------------

    def store_many(self, items) -> int:
        """Bulk-store ``(sub_id, EncryptedSubscription)`` pairs.

        One staging block, one norm reduction, one store append and one
        epoch bump for the whole batch — the 1M-subscription load path.
        The resulting packed rows, spans and match decisions are
        identical to storing the items one by one.  ``ValueError``, with
        nothing stored, if an id repeats or is already stored.
        """
        items = list(items)
        for _, subscription in items:
            if not isinstance(subscription, EncryptedSubscription):
                raise TypeError(
                    f"expected EncryptedSubscription, got "
                    f"{type(subscription).__name__}"
                )
        if not items:
            return 0
        ids = {sub_id for sub_id, _ in items}
        if len(ids) != len(items) or not ids.isdisjoint(self._subs):
            raise ValueError("store_many got an id that repeats or is stored")
        total = sum(len(s.predicates) for _, s in items)
        subscriptions = [subscription for _, subscription in items]
        row = self._append_packed(subscriptions, total) if total else self._rows
        for sub_id, subscription in items:
            self._subs[sub_id] = subscription
            self._spans[sub_id] = (row, row + len(subscription.predicates))
            row += len(subscription.predicates)
        self._index = None
        self._epoch += 1
        return len(items)

    # -- store configuration and observability --------------------------------

    @property
    def store_config(self) -> StoreConfig:
        return self._store_config

    def configure_store(self, config: StoreConfig) -> None:
        """Select the backing store (only while the library is empty)."""
        if config == self._store_config:
            return
        if self._subs or self._rows:
            raise ValueError(
                "cannot reconfigure the store of a non-empty library"
            )
        self._store_config = config
        self._chunks = ChunkedMatrixStore(config)
        if self._telemetry is not None:
            self._chunks.bind_telemetry(self._telemetry)

    def bind_telemetry(self, telemetry, label: str = "aspe") -> None:
        """Record store residency/fault/eviction activity into a bundle."""
        self._telemetry = telemetry
        self._chunks.bind_telemetry(telemetry, label)

    def store_stats(self) -> Dict[str, object]:
        """Backing-store residency statistics (see OBSERVABILITY.md)."""
        return self._chunks.stats()

    # -- packed-state maintenance ---------------------------------------------

    def _workspace(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A reusable scratch array of ``shape``/``dtype`` (contents stale)."""
        size = 1
        for extent in shape:
            size *= extent
        buffer = self._ws.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = np.empty(max(size, 1), dtype=dtype)
            self._ws[name] = buffer
        return buffer[:size].reshape(shape)

    def _append_rows(self, sub_id: int, subscription: EncryptedSubscription) -> None:
        count = len(subscription.predicates)
        start = self._append_packed([subscription], count) if count else self._rows
        self._spans[sub_id] = (start, start + count)

    def _append_packed(self, subscriptions, total: int) -> int:
        """Pack the ``total`` predicates of ``subscriptions`` into rows and
        append them to the backing store; returns the first row's offset."""
        width = next(
            s.predicates[0].vector.shape[0] for s in subscriptions if s.predicates
        )
        block = np.empty((total, width))
        strict = np.empty(total, dtype=bool)
        row = 0
        for subscription in subscriptions:
            for predicate in subscription.predicates:
                # Folding the ±1 comparison direction into the row is exact:
                # IEEE negation commutes with sums and products bit-for-bit.
                if _OP_SIGN[predicate.op_code] < 0.0:
                    np.negative(predicate.vector, out=block[row])
                else:
                    block[row] = predicate.vector
                strict[row] = _OP_STRICT[predicate.op_code]
                row += 1
        start, _ = self._chunks.append(block, strict, _tolerances(block, strict))
        return start

    def _span_index(self) -> _SpanIndex:
        """The cached :class:`_SpanIndex`, rebuilt after a bulk store or an
        import.

        Rebuilding is O(#subscriptions); a single store appends to the
        cached index instead (:meth:`_SpanIndex.append`).
        """
        if self._index is None:
            ids = list(self._subs)
            spans = np.array(
                [self._spans[sub_id] for sub_id in ids], dtype=np.int64
            ).reshape(-1, 2)
            positions = np.flatnonzero(spans[:, 1] > spans[:, 0])
            self._index = _SpanIndex(
                ids, np.vstack((positions, spans[positions].T))
            )
            self.index_rebuild_count += 1
        return self._index
