"""
The harmonic multiplication table and its doublets
==================================================

The 10x10 multiplication grid repeats each product q = k(k+1) at the two
cells flanking the main diagonal.  Those q values (0, 2, 6, 12, 20, ...)
are exactly the right-hand sides for which x^2 - x - q = 0 has integer
roots, so the grid is a lookup table for the integer metallic means.
"""

from goldmean import build_table, cross_check_integer_means, find_doublets, key_rows

table = build_table(10)

print("The grid (doublet cells marked with *):")
doublet_cells = set()
for report in find_doublets(table):
    doublet_cells.update(report.positions)
for i, row in enumerate(table.rows()):
    cells = []
    for j, value in enumerate(row):
        mark = "*" if (i, j) in doublet_cells else " "
        cells.append(f"{value:>3}{mark}")
    print("  " + "".join(cells))

print()
print("Doublets and the integer pairs they encode:")
for q, pair in cross_check_integer_means(table):
    print(f"  q = {q:>2} -> roots with magnitudes {pair}")

print()
print("The key: k^2 + k equals k(k+1), row by row:")
for k, square_plus, product in key_rows(9):
    print(f"  ({k} x {k}) + {k} = {square_plus:>2}   {k} x {k + 1} = {product:>2}")
