"""Gauss-Legendre nodes on the reference interval [-1, 1].

The package uses the 4-, 8- and 16-point rules only (`quadrature`'s
gauss orders), so they are literals: the floats of numpy's
`polynomial.legendre.leggauss`, which are symmetric bit for bit, and
no result imports `numpy.polynomial`.
"""

from __future__ import annotations

import numpy as np

# order -> (positive nodes, ascending; their weights)
_HALVES = {
    4: ((0.33998104358485626, 0.8611363115940526),
        (0.6521451548625464, 0.34785484513745357)),
    8: ((0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362),
        (0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
         0.10122853629037706)),
    16: ((0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
          0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499),
         (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
          0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
          0.027152459411754176)),
}


def _rule(half_nodes, half_weights) -> tuple[np.ndarray, np.ndarray]:
    x = np.concatenate([np.negative(half_nodes[::-1]), half_nodes])
    w = np.array(half_weights[::-1] + half_weights)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


_RULES = {order: _rule(*half) for order, half in _HALVES.items()}


def nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (points, weights) of the `order`-point rule (4, 8 or 16),
    ascending in the points; the weights sum to 2."""
    return _RULES[order]
