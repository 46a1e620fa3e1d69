package main

// wantTable1 holds the Table-1 layout dimensions (width, height in tiles)
// of the default flow, as recorded in EXPERIMENTS.md. Exact P&R is
// minimal-area, so any change here is a regression in layout quality or a
// fallback to the scalable router. Σ w×h = 483.
var wantTable1 = map[string][2]int{
	"xor2": {2, 3}, "xnor2": {2, 3}, "par_gen": {3, 4}, "mux21": {3, 9},
	"par_check": {4, 5}, "xor5_r1": {5, 6}, "xor5_majority": {5, 6},
	"t": {5, 8}, "t_5": {5, 8}, "c17": {5, 9}, "majority": {3, 9},
	"majority_5_r1": {5, 12}, "cm82a_5": {5, 12}, "newtag": {8, 10},
}

// wantExactOK is how many of the 28 library variants gatelib.ValidateWith
// proves correct with an exact ground-state engine under automatic
// dispatch. Fewer is a regression: a proof became an annealed pass or a
// failure.
const wantExactOK = 10
