package main

// pin is the expected first pass over a workload's op list at
// defaultSeed: the ordered fold of its execution digests and how many
// runs passed their own success evaluation.
type pin struct {
	fold      uint64
	successes int
}

// pins holds the default-seed first pass of each engine workload. A
// change that alters any execution — engine, protocol, adversary or
// digest schema — breaks its pin on purpose; every run prints the values
// to re-pin as "first pass: digest fold ...".
var pins = map[string]pin{
	"paper-sparse": {fold: 0xa57bf14c1497b463, successes: paperOps},
	"table1-dense": {fold: 0x90b4bd0b0e3d5521, successes: denseOps},
	"dst-verify":   {fold: 0x57f28ad735ec5886, successes: dstCases},
}
