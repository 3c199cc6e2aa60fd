package dst

import (
	"encoding/gob"
	"fmt"

	"sublinear/internal/netsim"
	"sublinear/internal/realnet"
	"sublinear/internal/wire"
)

// Socket-engine integration: payload codecs and output types for the
// harness's own systems, the builder and coordinator configuration that
// run any registered clique system across processes, and a check that
// re-validates a case over real sockets. Every system in the registry
// except the two topology elections runs under netsim.RealNet, so a
// schedule the simulator flags can be replayed over TCP and diffed
// digest-for-digest.

func emptyCodec(name string, build func() netsim.Payload) realnet.PayloadCodec {
	return realnet.PayloadCodec{
		Name:   name,
		Encode: func(dst []byte, _ netsim.Payload) ([]byte, error) { return dst, nil },
		Decode: func(b []byte) (netsim.Payload, []byte, error) { return build(), b, nil },
	}
}

func init() {
	gob.Register(EchoOutput{})
	gob.Register(MinFloodOutput{})
	gob.Register(CanaryOutput{})
	realnet.RegisterPayload(echoPing{}, emptyCodec("dst/echo-ping",
		func() netsim.Payload { return echoPing{} }))
	realnet.RegisterPayload(echoReply{}, emptyCodec("dst/echo-reply",
		func() netsim.Payload { return echoReply{} }))
	realnet.RegisterPayload(minFloodHello{}, emptyCodec("dst/mf-hello",
		func() netsim.Payload { return minFloodHello{} }))
	realnet.RegisterPayload(canaryPing{}, emptyCodec("dst/ping",
		func() netsim.Payload { return canaryPing{} }))
	realnet.RegisterPayload(minFloodValue{}, realnet.PayloadCodec{
		Name: "dst/mf-value",
		Encode: func(dst []byte, p netsim.Payload) ([]byte, error) {
			return wire.AppendUvarint(dst, uint64(p.(minFloodValue).v)), nil
		},
		Decode: func(b []byte) (netsim.Payload, []byte, error) {
			v, rest, err := wire.Uvarint(b)
			if err != nil {
				return nil, nil, err
			}
			return minFloodValue{v: int(v)}, rest, nil
		},
	})
}

// CheckRealnet re-validates a case over the socket engine: it runs the
// sequential reference, replays the identical case under netsim.RealNet,
// diffs the two runs (digest first), and applies the system's oracles to
// the socket run's view. It is the hook dst campaigns and mc universes
// use to confirm a simulator-found violation is not a simulator
// artifact — and that a clean schedule stays clean over real I/O.
func CheckRealnet(c Case) (*Failure, error) {
	ref, f, err := CheckSequential(c)
	if err != nil || f != nil {
		return f, err
	}
	sys, err := Lookup(c.System)
	if err != nil {
		return nil, err
	}
	run, err := sys.Run(c, netsim.RealNet, nil)
	if err != nil {
		return &Failure{Case: c, Kind: "error",
			Detail: fmt.Sprintf("realnet mode: %v", err)}, nil
	}
	if d := diffRuns(ref, run); d != "" {
		return &Failure{Case: c, Kind: "divergence",
			Detail: fmt.Sprintf("sequential vs realnet mode: %s", d)}, nil
	}
	for _, o := range sys.Oracles {
		if err := o.Check(run.View); err != nil {
			return &Failure{Case: c, Kind: "oracle", Oracle: o.Name, Detail: err.Error()}, nil
		}
	}
	return nil, nil
}

// Machines rebuilds a system's machines from the run parameters a
// realnet coordinator announces: the builder realnet.Join takes. It
// derives F and the inputs exactly as a case does, so a worker process
// builds the machines the simulator-side reference runs.
func Machines(system string, p realnet.SystemParams) ([]netsim.Machine, error) {
	sys, err := Lookup(system)
	if err != nil {
		return nil, err
	}
	c := Case{System: system, N: p.N, Alpha: p.Alpha, Seed: p.Seed, POne: p.POne}
	_, machines, err := sys.Build(c.setup(sys))
	return machines, err
}

// RealnetConfig returns the configuration and system spec a realnet
// coordinator serves the case with, its schedule as the adversary;
// workers rebuild the machines with Machines. Systems on a port table
// are refused: the socket engine runs only the complete network.
func RealnetConfig(c Case) (realnet.Config, realnet.SystemSpec, error) {
	if err := c.Validate(); err != nil {
		return realnet.Config{}, realnet.SystemSpec{}, err
	}
	sys, err := Lookup(c.System)
	if err != nil {
		return realnet.Config{}, realnet.SystemSpec{}, err
	}
	if sys.Topology != "" {
		return realnet.Config{}, realnet.SystemSpec{}, fmt.Errorf(
			"dst: %s runs on the %s topology, and the socket engine runs only the complete network", c.System, sys.Topology)
	}
	cfg, _, err := sys.Build(c.setup(sys))
	if err != nil {
		return realnet.Config{}, realnet.SystemSpec{}, err
	}
	adv, err := c.adversary()
	if err != nil {
		return realnet.Config{}, realnet.SystemSpec{}, err
	}
	return realnet.Config{
		N:             cfg.N,
		Alpha:         cfg.Alpha,
		Seed:          cfg.Seed,
		MaxRounds:     cfg.MaxRounds,
		CongestFactor: cfg.CongestFactor,
		Strict:        cfg.Strict,
		Adversary:     adv,
	}, realnet.SystemSpec{Name: c.System, POne: c.POne}, nil
}
