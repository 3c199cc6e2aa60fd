package baseline

import (
	"encoding/gob"

	"sublinear/internal/netsim"
	"sublinear/internal/realnet"
	"sublinear/internal/wire"
)

// Socket-engine payload codecs for the baseline protocols, so every
// comparator runs over internal/realnet too and the cross-engine
// conformance matrix can diff it against the simulator. Encodings are
// tag-free — the realnet registry tags by concrete type — and mirror the
// Bits() model accounting: one varint per payload. The output types are
// registered with gob, which carries a worker process's outputs back to
// a realnet coordinator.

// uvarintCodec builds a codec for a payload that is a single uint64
// field: field extracts it, build reconstructs the payload.
func uvarintCodec(name string, field func(netsim.Payload) uint64, build func(uint64) netsim.Payload) realnet.PayloadCodec {
	return realnet.PayloadCodec{
		Name: name,
		Encode: func(dst []byte, p netsim.Payload) ([]byte, error) {
			return wire.AppendUvarint(dst, field(p)), nil
		},
		Decode: func(b []byte) (netsim.Payload, []byte, error) {
			v, rest, err := wire.Uvarint(b)
			if err != nil {
				return nil, nil, err
			}
			return build(v), rest, nil
		},
	}
}

func init() {
	for _, out := range []any{FloodSetOutput{}, GKOutput{}, GossipOutput{}, RotatingOutput{},
		AllPairsOutput{}, KuttenOutput{}, AMPOutput{}, D2Output{}, WCOutput{}} {
		gob.Register(out)
	}
	realnet.RegisterPayload(coordMsg{}, uvarintCodec("baseline/coord",
		func(p netsim.Payload) uint64 { return uint64(p.(coordMsg).bit) },
		func(v uint64) netsim.Payload { return coordMsg{bit: int(v)} }))
	realnet.RegisterPayload(floodValue{}, uvarintCodec("baseline/flood",
		func(p netsim.Payload) uint64 { return uint64(p.(floodValue).bit) },
		func(v uint64) netsim.Payload { return floodValue{bit: int(v)} }))
	realnet.RegisterPayload(gossipMsg{}, uvarintCodec("baseline/gossip",
		func(p netsim.Payload) uint64 { return uint64(p.(gossipMsg).bit) },
		func(v uint64) netsim.Payload { return gossipMsg{bit: int(v)} }))
	realnet.RegisterPayload(ampBit{}, uvarintCodec("baseline/bit",
		func(p netsim.Payload) uint64 { return uint64(p.(ampBit).bit) },
		func(v uint64) netsim.Payload { return ampBit{bit: int(v)} }))
	realnet.RegisterPayload(ampReply{}, uvarintCodec("baseline/reply",
		func(p netsim.Payload) uint64 { return uint64(p.(ampReply).bit) },
		func(v uint64) netsim.Payload { return ampReply{bit: int(v)} }))
	realnet.RegisterPayload(gkFlood{}, uvarintCodec("baseline/committee",
		func(p netsim.Payload) uint64 { return uint64(p.(gkFlood).bit) },
		func(v uint64) netsim.Payload { return gkFlood{bit: int(v)} }))
	realnet.RegisterPayload(gkAnnounce{}, uvarintCodec("baseline/gk-announce",
		func(p netsim.Payload) uint64 { return uint64(p.(gkAnnounce).bit) },
		func(v uint64) netsim.Payload { return gkAnnounce{bit: int(v)} }))
	realnet.RegisterPayload(apRank{}, uvarintCodec("baseline/rank",
		func(p netsim.Payload) uint64 { return p.(apRank).rank },
		func(v uint64) netsim.Payload { return apRank{rank: v} }))
	realnet.RegisterPayload(kuttenAnnounce{}, uvarintCodec("baseline/kutten-announce",
		func(p netsim.Payload) uint64 { return p.(kuttenAnnounce).rank },
		func(v uint64) netsim.Payload { return kuttenAnnounce{rank: v} }))
	realnet.RegisterPayload(kuttenReply{}, uvarintCodec("baseline/kutten-reply",
		func(p netsim.Payload) uint64 { return p.(kuttenReply).min },
		func(v uint64) netsim.Payload { return kuttenReply{min: v} }))
	realnet.RegisterPayload(d2Announce{}, uvarintCodec("baseline/d2-announce",
		func(p netsim.Payload) uint64 { return uint64(p.(d2Announce).key) },
		func(v uint64) netsim.Payload { return d2Announce{key: int64(v)} }))
	realnet.RegisterPayload(d2Reply{}, uvarintCodec("baseline/d2-reply",
		func(p netsim.Payload) uint64 { return uint64(p.(d2Reply).best) },
		func(v uint64) netsim.Payload { return d2Reply{best: int64(v)} }))
	realnet.RegisterPayload(wcRank{}, uvarintCodec("baseline/wc-rank",
		func(p netsim.Payload) uint64 { return uint64(p.(wcRank).key) },
		func(v uint64) netsim.Payload { return wcRank{key: int64(v)} }))
}
