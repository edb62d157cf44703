"""Dataset generators mirroring the paper's workloads (Section 6).

Synthetic uniform datasets come in two families:

* :func:`unif_by_exponent` — the UNIF(E) density series: density ``10^E``
  over the 39,000 x 39,000 region (E from -7.0 to -4.2);
* :func:`sized_uniform` — the second series with fixed sizes 2,000..30,000.

The paper's real datasets (Greek CITY, ~6,000 towns; US POST, ~100,000
post offices) came from a spatial-data archive that is no longer online.
:func:`city_like` and :func:`post_like` substitute Gaussian-mixture
clustered generators with matched cardinality and region — what matters to
every experiment that uses them (Table 3, Figure 12(d)) is that the data is
*skewed*, which breaks Approximate-TNN's uniformity assumption; see
DESIGN.md section 5.

Every generator is a pure function of its seed and keeps a stream
contract: :func:`uniform` (and the two uniform series built on it) draws,
point by point, what ``Random(seed).uniform`` would for x and then y, and
:func:`gaussian_clusters` (behind :func:`city_like` and :func:`post_like`)
what ``Random(seed).uniform`` for the cluster centres, then one
``choices`` and two ``gauss`` calls per attempted point would.  They read
the Mersenne Twister in blocks through ``getrandbits`` and keep
``gauss``'s transcendental functions on :mod:`math`, so the points are
the per-draw ones bit for bit; ``repro.datasets.synthetic`` says how.
"""

from repro.datasets.synthetic import (
    PAPER_REGION_SIDE,
    UNIF_EXPONENTS,
    density_of,
    expected_nn_distance,
    gaussian_clusters,
    scale_to_region,
    sized_uniform,
    unif_by_exponent,
    unif_size,
    uniform,
)
from repro.datasets.named import CITY_SIZE, POST_SIZE, city_like, post_like
from repro.datasets.io import load_points, save_points

__all__ = [
    "save_points",
    "load_points",
    "PAPER_REGION_SIDE",
    "UNIF_EXPONENTS",
    "CITY_SIZE",
    "POST_SIZE",
    "uniform",
    "unif_by_exponent",
    "unif_size",
    "sized_uniform",
    "gaussian_clusters",
    "scale_to_region",
    "density_of",
    "expected_nn_distance",
    "city_like",
    "post_like",
]
