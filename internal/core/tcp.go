package core

import (
	"encoding/gob"
	"fmt"

	"sublinear/internal/netsim"
	"sublinear/internal/realnet"
	"sublinear/internal/rng"
)

// Socket-engine glue: payload codecs, deterministic input derivation,
// and system factories that let worker processes (internal/realnet
// Serve/Join, cmd/realnode) rebuild the exact machines an in-process
// caller would construct. The TCP entry points below are thin wrappers
// that flip RunConfig.Mode to netsim.RealNet — same result types, same
// evaluation, same digest as the simulator.

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

	realnet.RegisterSystem("election", func(p realnet.SystemParams) ([]netsim.Machine, error) {
		d, err := deriveParams(Params{}, p.N, p.Alpha)
		if err != nil {
			return nil, err
		}
		machines := make([]netsim.Machine, p.N)
		for u := range machines {
			machines[u] = newElectionMachine(d)
		}
		return machines, nil
	})
	realnet.RegisterSystem("agreement", func(p realnet.SystemParams) ([]netsim.Machine, error) {
		d, err := deriveParams(Params{}, p.N, p.Alpha)
		if err != nil {
			return nil, err
		}
		inputs := DeriveAgreementInputs(p.N, p.Seed, p.POne)
		machines := make([]netsim.Machine, p.N)
		for u := range machines {
			machines[u] = newAgreementMachine(d, inputs[u])
		}
		return machines, nil
	})
	realnet.RegisterSystem("minagree", func(p realnet.SystemParams) ([]netsim.Machine, error) {
		d, err := deriveParams(Params{}, p.N, p.Alpha)
		if err != nil {
			return nil, err
		}
		values := DeriveMinAgreementValues(p.N, p.Seed)
		machines := make([]netsim.Machine, p.N)
		for u := range machines {
			machines[u] = newMinAgreeMachine(d, values[u])
		}
		return machines, nil
	})
}

// inputStream is the shared derivation of protocol inputs from a run
// seed: a split of the run's rng keyed by a fixed constant, consumed
// node by node. The dst harness and the realnet system factories both
// use it, so a worker process and the simulator-side reference derive
// identical inputs from the (n, seed) pair alone.
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

// RealnetSpec assembles the realnet coordinator configuration and system
// spec for one of the registered core systems — the single source of
// truth cmd/realnode and the multi-process tests use, so coordinator and
// workers agree on horizons and budgets by construction.
func RealnetSpec(system string, n int, alpha float64, seed uint64, pOne float64) (realnet.Config, realnet.SystemSpec, error) {
	d, err := deriveParams(Params{}, n, alpha)
	if err != nil {
		return realnet.Config{}, realnet.SystemSpec{}, err
	}
	var maxRounds int
	switch system {
	case "election":
		maxRounds = electionRounds(d)
	case "agreement":
		maxRounds = agreementRounds(d, 0)
	case "minagree":
		maxRounds = newMinAgreeMachine(d, 0).endRound
	default:
		return realnet.Config{}, realnet.SystemSpec{}, fmt.Errorf("core: unknown realnet system %q (want election, agreement, or minagree)", system)
	}
	cfg := realnet.Config{
		N:             n,
		Alpha:         alpha,
		Seed:          seed,
		MaxRounds:     maxRounds,
		CongestFactor: DefaultCongestFactor,
		Strict:        true,
	}
	return cfg, realnet.SystemSpec{Name: system, POne: pOne}, nil
}

// RunElectionOverTCP executes the leader election over real TCP loopback
// sockets: every message is serialized through the payload codec and
// crosses a socket. Same model, same adversary semantics, same
// evaluation, and — the conformance contract — the same Result.Digest as
// RunElection on the sequential simulator.
func RunElectionOverTCP(cfg RunConfig) (*ElectionResult, error) {
	cfg.Mode = netsim.RealNet
	return RunElection(cfg)
}

// RunAgreementOverTCP is RunAgreement over real TCP loopback sockets.
func RunAgreementOverTCP(cfg RunConfig, inputs []int) (*AgreementResult, error) {
	cfg.Mode = netsim.RealNet
	return RunAgreement(cfg, inputs)
}

// RunMinAgreementOverTCP is RunMinAgreement over real TCP loopback
// sockets.
func RunMinAgreementOverTCP(cfg RunConfig, values []uint64) (*MinAgreementResult, error) {
	cfg.Mode = netsim.RealNet
	return RunMinAgreement(cfg, values)
}
