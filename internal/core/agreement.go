package core

import (
	"sublinear/internal/netsim"
)

// AgreementOutput is a node's output from the implicit agreement protocol
// (Definition 2). Non-candidates end undecided (the paper's bot state)
// unless the explicit extension delivered a value to them.
type AgreementOutput struct {
	// IsCandidate reports whether the node joined the candidate
	// committee.
	IsCandidate bool
	// Input is the node's initial bit.
	Input int
	// Decided reports whether the node left the bot state.
	Decided bool
	// Value is the decided bit; meaningful only when Decided.
	Value int
}

// agreementMachine implements Section V-A: candidates are biased toward 0;
// a single 0 held by any candidate propagates candidate -> referee ->
// candidate with every party forwarding 0 at most once per peer, so the
// total traffic stays at O(sqrt(n) log^{3/2} n / alpha^{3/2}) bits.
type agreementMachine struct {
	d         derived
	input     int
	lastRound int

	mainEnd   int
	announceR int
	endRound  int

	// Candidate role.
	isCandidate bool
	refPorts    []int
	refPortSet  map[int]bool
	hasZero     bool // decided on 0
	sentZero    bool // forwarded 0 to referees (at most once)

	// Referee role.
	refActive bool
	candPorts []int
	candSet   map[int]bool
	holdsZero bool
	zeroSent  map[int]bool // ports already sent 0

	out netsim.EdgeQueue

	// Explicit extension.
	announcedBit int // -1 = none
}

var (
	_ netsim.Machine = (*agreementMachine)(nil)
	_ netsim.Sleeper = (*agreementMachine)(nil)
)

func newAgreementMachine(d derived, input int) *agreementMachine {
	m := &agreementMachine{d: d, input: input, announcedBit: -1}
	// Step 0 takes one round; each of the O(log n / alpha) iterations of
	// Steps 1-2 takes two rounds; two drain rounds let the last zero
	// land.
	m.mainEnd = 1 + 2*d.iterations + 2
	m.endRound = m.mainEnd
	if d.params.Explicit {
		m.announceR = m.mainEnd + 1
		m.endRound = m.announceR + 1
	}
	return m
}

// agreementRounds returns the total number of rounds the schedule needs.
func agreementRounds(d derived, input int) int { return newAgreementMachine(d, input).endRound }

func (m *agreementMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	if round == 1 {
		return m.start(env)
	}
	for _, msg := range inbox {
		m.handle(msg)
	}
	if m.announceR != 0 && round == m.announceR {
		return m.announce(env)
	}
	if m.isCandidate && m.hasZero && !m.sentZero {
		// Step 1: "u sends 0 to its referee nodes and agrees on 0."
		// Routed through the shared per-port queue so a node holding
		// both roles never emits two messages on one edge in a round.
		m.sentZero = true
		for _, rp := range m.refPorts {
			m.out.Enqueue(rp, zeroMsg{})
		}
	}
	return m.out.Flush(nil)
}

// start is Step 0: candidate selection, referee sampling, registration.
// Every candidate contacts its referees so they learn their role; a
// candidate with input 0 thereby also ships the 0.
func (m *agreementMachine) start(env *netsim.Env) []netsim.Send {
	if !env.Rand.Bool(m.d.candidateProb) {
		return nil
	}
	m.isCandidate = true
	if m.input == 0 {
		m.hasZero = true
		m.sentZero = true // the registration below carries the 0
	}
	ports := env.Rand.SampleDistinct(m.d.refereeCount, env.N-1, nil)
	m.refPorts = make([]int, len(ports))
	m.refPortSet = make(map[int]bool, len(ports))
	sends := make([]netsim.Send, len(ports))
	for i, p := range ports {
		m.refPorts[i] = p + 1
		m.refPortSet[p+1] = true
		sends[i] = netsim.Send{Port: p + 1, Payload: bitRegister{bit: m.input}}
	}
	return sends
}

func (m *agreementMachine) handle(msg netsim.Delivery) {
	switch pl := msg.Payload.(type) {
	case bitRegister:
		m.refereeContact(msg.Port)
		if pl.bit == 0 {
			m.receiveZeroAsReferee()
		}
	case zeroMsg:
		// A node may hold both roles, so classify by the arrival port:
		// a zero from one of our referees is Step 1's "candidate
		// receives 0"; a zero from a registered candidate port is Step
		// 2's "referee possesses 0".
		if m.isCandidate && m.refPortSet[msg.Port] {
			m.hasZero = true
		}
		switch {
		case m.candSet != nil && m.candSet[msg.Port]:
			m.receiveZeroAsReferee()
		case !m.refPortSet[msg.Port]:
			// Zero from an unknown port: a candidate whose registration
			// was lost to a crash. Adopt it as a candidate port.
			m.refereeContact(msg.Port)
			m.receiveZeroAsReferee()
		}
	case valueAnnounce:
		if m.announcedBit == -1 || pl.bit < m.announcedBit {
			m.announcedBit = pl.bit
		}
	}
}

func (m *agreementMachine) refereeContact(port int) {
	if m.candSet == nil {
		m.candSet = make(map[int]bool)
	}
	if m.candSet[port] {
		return
	}
	m.refActive = true
	m.candSet[port] = true
	m.candPorts = append(m.candPorts, port)
	if m.holdsZero && !m.zeroSent[port] {
		m.zeroSent[port] = true
		m.out.Enqueue(port, zeroMsg{})
	}
}

// receiveZeroAsReferee is Step 2: a referee that possesses 0 sends it to
// each of its candidates once.
func (m *agreementMachine) receiveZeroAsReferee() {
	if m.holdsZero {
		return
	}
	m.holdsZero = true
	if m.zeroSent == nil {
		m.zeroSent = make(map[int]bool)
	}
	for _, cp := range m.candPorts {
		if !m.zeroSent[cp] {
			m.zeroSent[cp] = true
			m.out.Enqueue(cp, zeroMsg{})
		}
	}
}

// announce is the explicit extension: every decided candidate broadcasts
// the agreed bit to the whole network in one round.
func (m *agreementMachine) announce(env *netsim.Env) []netsim.Send {
	if !m.isCandidate {
		return nil
	}
	bit := 1
	if m.hasZero {
		bit = 0
	}
	sends := make([]netsim.Send, 0, env.N-1)
	for p := 1; p < env.N; p++ {
		sends = append(sends, netsim.Send{Port: p, Payload: valueAnnounce{bit: bit}})
	}
	return sends
}

// NextWake implements netsim.Sleeper with the core wake rule (nextWake).
func (m *agreementMachine) NextWake(round int) int {
	return nextWake(round, m.isCandidate || !m.out.Empty(), m.endRound)
}

func (m *agreementMachine) Done() bool {
	if m.lastRound >= m.endRound {
		return true
	}
	if !m.d.params.EarlyStop {
		return false
	}
	if m.lastRound < 2 || !m.out.Empty() {
		return false
	}
	if m.isCandidate && m.hasZero && !m.sentZero {
		return false
	}
	// With EarlyStop a candidate that holds only 1s cannot stop before
	// the schedule ends: a 0 may still be on its way. Candidates holding
	// 0 (and all referees/passive nodes) are quiescent once their queues
	// drain. The all-ones case therefore still runs the full budget,
	// exactly as in the paper ("the algorithm doesn't send any messages
	// during the iterations and terminates after O(log n / alpha)
	// rounds").
	if m.isCandidate && !m.hasZero {
		return false
	}
	return true
}

func (m *agreementMachine) Output() any {
	out := AgreementOutput{IsCandidate: m.isCandidate, Input: m.input}
	switch {
	case m.isCandidate && m.hasZero:
		out.Decided, out.Value = true, 0
	case m.isCandidate && m.lastRound >= m.mainEnd:
		// "If they do not have 0, they agree on 1" at termination.
		out.Decided, out.Value = true, 1
	case !m.isCandidate && m.announcedBit >= 0:
		out.Decided, out.Value = true, m.announcedBit
	}
	return out
}
