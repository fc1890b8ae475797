package space

import (
	"fmt"
	"slices"
	"testing"
)

// mapNeighbors26 is the map-based dedup Neighbors26 used before the
// linear scan: the reference for order and content.
func mapNeighbors26(g Grid, idx int, dst []int) []int {
	ix, iy, iz := g.Coords(idx)
	seen := map[int]bool{idx: true}
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				n := g.CellOfCoords(ix+dx, iy+dy, iz+dz)
				if !seen[n] {
					seen[n] = true
					dst = append(dst, n)
				}
			}
		}
	}
	return dst
}

// mapColumnNeighbors8 is the map-based reference for ColumnNeighbors8.
func mapColumnNeighbors8(g Grid, col int, dst []int) []int {
	ix, iy := g.ColumnCoords(col)
	seen := map[int]bool{col: true}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			n := g.ColumnIndex(mod(ix+dx, g.Nx), mod(iy+dy, g.Ny))
			if !seen[n] {
				seen[n] = true
				dst = append(dst, n)
			}
		}
	}
	return dst
}

// TestNeighborsMatchMapReference checks the linear-scan dedup against the
// map-based reference element for element, in order, on every grid with
// 1 to 4 cells per axis — the range where wrapped neighbors collide — and
// pins both walks at zero allocations with a pre-sized dst. A non-empty
// dst prefix holding neighbor ids must be kept and must not suppress any
// appended entry: the dedup only scans what the call itself appended.
func TestNeighborsMatchMapReference(t *testing.T) {
	b := mustBox(t, 12)
	for nx := 1; nx <= 4; nx++ {
		for ny := 1; ny <= 4; ny++ {
			for nz := 1; nz <= 4; nz++ {
				g, err := NewGridWithDims(b, nx, ny, nz)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%dx%dx%d", nx, ny, nz)
				buf := make([]int, 0, 32)
				for idx := 0; idx < g.NumCells(); idx++ {
					prefix := []int{-1, (idx + 1) % g.NumCells()}
					for _, pre := range [][]int{nil, prefix} {
						want := mapNeighbors26(g, idx, slices.Clone(pre))
						if got := g.Neighbors26(idx, slices.Clone(pre)); !slices.Equal(got, want) {
							t.Fatalf("%s Neighbors26(%d, %v) = %v, want %v", name, idx, pre, got, want)
						}
					}
					if a := testing.AllocsPerRun(10, func() { buf = g.Neighbors26(idx, buf[:0]) }); a != 0 {
						t.Fatalf("%s Neighbors26(%d): %v allocs per call, want 0", name, idx, a)
					}
				}
				for col := 0; col < g.NumColumns(); col++ {
					prefix := []int{-1, (col + 1) % g.NumColumns()}
					for _, pre := range [][]int{nil, prefix} {
						want := mapColumnNeighbors8(g, col, slices.Clone(pre))
						if got := g.ColumnNeighbors8(col, slices.Clone(pre)); !slices.Equal(got, want) {
							t.Fatalf("%s ColumnNeighbors8(%d, %v) = %v, want %v", name, col, pre, got, want)
						}
					}
					if a := testing.AllocsPerRun(10, func() { buf = g.ColumnNeighbors8(col, buf[:0]) }); a != 0 {
						t.Fatalf("%s ColumnNeighbors8(%d): %v allocs per call, want 0", name, col, a)
					}
				}
			}
		}
	}
}
