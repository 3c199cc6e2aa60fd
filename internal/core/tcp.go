package core

import (
	"encoding/gob"

	"sublinear/internal/netsim"
	"sublinear/internal/realnet"
	"sublinear/internal/rng"
)

// Socket-engine glue: the payload codecs and output types a realnet
// worker process needs, and the deterministic input derivation that
// lets a worker rebuild the exact inputs an in-process caller would
// construct from (n, seed) alone. The machines themselves come from the
// protocol registry (internal/dst).

func init() {
	type entry struct {
		name   string
		sample netsim.Payload
	}
	for _, e := range []entry{
		{"core/rank", rankAnnounce{}},
		{"core/fwd", rankForward{}},
		{"core/propose", proposeMsg{}},
		{"core/relay", relayMaxMsg{}},
		{"core/claim", claimMsg{}},
		{"core/confirm", confirmMsg{}},
		{"core/leader-announce", leaderAnnounce{}},
		{"core/register", bitRegister{}},
		{"core/zero", zeroMsg{}},
		{"core/value-announce", valueAnnounce{}},
		{"core/value", valueMsg{}},
	} {
		realnet.RegisterPayload(e.sample, realnet.PayloadCodec{
			Name:   e.name,
			Encode: EncodePayload,
			Decode: DecodePayload,
		})
	}

	gob.Register(ElectionOutput{})
	gob.Register(AgreementOutput{})
	gob.Register(MinAgreementOutput{})
}

// inputStream is the shared derivation of protocol inputs from a run
// seed: a split of the run's rng keyed by a fixed constant, consumed
// node by node. The protocol registry (internal/dst) derives every
// case's inputs with it, so a realnet worker process and the
// simulator-side reference derive identical inputs from the (n, seed)
// pair alone.
func inputStream(seed uint64) *rng.Source { return rng.New(seed).Split(0x1b) }

// DeriveAgreementInputs derives the n one-bit agreement inputs for a
// seed. pOne is the probability of a 1-input; zero means one half.
func DeriveAgreementInputs(n int, seed uint64, pOne float64) []int {
	if pOne == 0 {
		pOne = 0.5
	}
	src := inputStream(seed)
	inputs := make([]int, n)
	for u := range inputs {
		if src.Bool(pOne) {
			inputs[u] = 1
		}
	}
	return inputs
}

// DeriveMinAgreementValues derives the n 16-bit min-agreement inputs for
// a seed.
func DeriveMinAgreementValues(n int, seed uint64) []uint64 {
	src := inputStream(seed)
	values := make([]uint64, n)
	for u := range values {
		values[u] = src.Uint64() & 0xffff
	}
	return values
}
