"""The S_k action on cell tuples, one Python mask_image call per mask.

The package acts on member tables through combinatorics.mask_perms; these
tuple helpers stay here as its independent oracle.
"""

from hyperlim.combinatorics import mask_image, position_perms


def permute_cell(cell: tuple, k: int, perm) -> tuple:
    """Push a cell coordinate forward along a position permutation.

    The image assigns to mask perm(m) the label the original assigned to m,
    so coordinates of permuted tuples match permuted coordinates.
    """
    out = [0] * len(cell)
    for m in range(1, 1 << k):
        out[mask_image(m, perm) - 1] = cell[m - 1]
    return tuple(out)


def cell_orbit(cell: tuple, k: int) -> frozenset:
    return frozenset(permute_cell(cell, k, p) for p in position_perms(k))
