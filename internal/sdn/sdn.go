// Package sdn models a software-defined network on top of the NDlog
// engine, in the style of the paper's SDN case studies (§6.1): switches
// with priority-matched flow tables, a declarative controller that
// compiles operator intents into flow entries, mirroring (the DPI box of
// Figure 1), and packet forwarding with OpenFlow highest-priority-match
// semantics.
//
// Flow entries are derived state: the controller derives a policyRoute
// for every (intent, hop) pair and installs flow entries on switches that
// are up. This gives flow entries the deep provenance the paper's trees
// exhibit, and lets DiffProv trace a misrouted packet all the way back to
// the misconfigured intent. Hard-coded entries (staticEntry) are also
// supported, e.g. for the Stanford scenario's forwarding tables.
package sdn

import (
	"fmt"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// modelSource is the NDlog model of the network. Packets carry
// (src, dst, proto); flow entries match source and destination prefixes.
const modelSource = `
// Controller state (all mutable configuration).
table link/2 base mutable;          // (from, to), at the controller
table switchUp/1 base mutable;      // (sw), at the controller
table hop/3 base mutable;           // (dstHost, sw, nxt): routing step toward a host
table intent/4 base mutable;        // (prio, srcMatch, dstMatch, dstHost)
table mirrorIntent/4 base mutable;  // (sw, srcMatch, dstMatch, mirrorDst)
table staticEntry/4 base mutable;   // (prio, srcMatch, dstMatch, nxt), located on a switch
table configLine/5 base mutable;    // (fileChecksum, prio, srcMatch, dstMatch, nxt): one parsed line of a router config
table configFile/1 base mutable;    // (fileChecksum): a loaded router configuration

// Derived controller and switch state.
table policyRoute/5;                // (prio, srcMatch, dstMatch, sw, nxt)
table flowEntry/4;                  // (prio, srcMatch, dstMatch, nxt), on a switch
table mirrorEntry/3;                // (srcMatch, dstMatch, mirrorDst), on a switch

// Events.
table packet/3 event base;          // (src, dst, proto)

// The controller program: intents compile to per-switch routes, which
// are installed as flow entries on live switches over live links.
rule pr policyRoute(@C, Prio, SM, DM, Sw, Nxt) :-
    intent(@C, Prio, SM, DM, H),
    hop(@C, H, Sw, Nxt).

rule fi flowEntry(@Sw, Prio, SM, DM, Nxt) :-
    policyRoute(@C, Prio, SM, DM, Sw, Nxt),
    switchUp(@C, Sw),
    link(@C, Sw, Nxt).

rule se flowEntry(@Sw, Prio, SM, DM, Nxt) :-
    staticEntry(@Sw, Prio, SM, DM, Nxt).

// Router-configuration parsing: a config line yields a flow entry once
// its file is loaded on the switch.
rule fc flowEntry(@Sw, Prio, SM, DM, Nxt) :-
    configLine(@Sw, F, Prio, SM, DM, Nxt),
    configFile(@Sw, F).

rule mi mirrorEntry(@Sw, SM, DM, D) :-
    mirrorIntent(@C, Sw, SM, DM, D),
    switchUp(@C, Sw).

// The data plane: a packet follows the highest-priority matching entry;
// mirror entries copy matching traffic (Figure 1 DPI tap).
rule fw packet(@Nxt, Src, Dst, Pr) :-
    packet(@Sw, Src, Dst, Pr),
    flowEntry(@Sw, Prio, SM, DM, Nxt),
    matches(Src, SM),
    matches(Dst, DM),
    argmax Prio.

rule mr packet(@D, Src, Dst, Pr) :-
    packet(@Sw, Src, Dst, Pr),
    mirrorEntry(@Sw, SM, DM, D),
    matches(Src, SM),
    matches(Dst, DM).
`

// Program parses the network model.
func Program() *ndlog.Program {
	return ndlog.MustParse(modelSource)
}

// Any is the match-everything prefix.
var Any = ndlog.MustParsePrefix("0.0.0.0/0")

// Header identifies a packet.
type Header struct {
	Src, Dst ndlog.IP
	Proto    int64
}

// Tuple returns the packet tuple for the header.
func (h Header) Tuple() ndlog.Tuple {
	return ndlog.NewTuple("packet", h.Src, h.Dst, ndlog.Int(h.Proto))
}

func (h Header) String() string {
	return fmt.Sprintf("%s -> %s proto %d", h.Src, h.Dst, h.Proto)
}

// Network is a simulated SDN: a replay session over the model plus
// convenience operations for building topologies, installing policy, and
// injecting traffic.
type Network struct {
	sess       *replay.Session
	controller string
	tick       int64
}

// Option configures a Network.
type Option func(*Network)

// WithController names the controller node (default "controller").
func WithController(name string) Option {
	return func(n *Network) { n.controller = name }
}

// WithSessionOptions is applied to the underlying replay session.
func WithSessionOptions(opts ...replay.SessionOption) Option {
	return func(n *Network) {
		n.sess = replay.NewSession(Program(), opts...)
	}
}

// NewNetwork creates an empty network.
func NewNetwork(opts ...Option) *Network {
	n := &Network{
		sess:       replay.NewSession(Program()),
		controller: "controller",
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Session exposes the underlying replay session (for DiffProv worlds and
// the benchmark harness).
func (n *Network) Session() *replay.Session { return n.sess }

// Controller returns the controller node name.
func (n *Network) Controller() string { return n.controller }

// Tick returns the current logical time; every injection advances it.
func (n *Network) Tick() int64 { return n.tick }

// AdvanceTo moves the injection clock forward.
func (n *Network) AdvanceTo(tick int64) {
	if tick > n.tick {
		n.tick = tick
	}
}

func (n *Network) step() int64 {
	n.tick++
	return n.tick
}

// AddLink registers a unidirectional link in the controller's topology.
func (n *Network) AddLink(from, to string) error {
	return n.sess.Insert(n.controller, ndlog.NewTuple("link", ndlog.Str(from), ndlog.Str(to)), n.step())
}

// SwitchUp marks a switch as alive.
func (n *Network) SwitchUp(sw string) error {
	return n.sess.Insert(n.controller, ndlog.NewTuple("switchUp", ndlog.Str(sw)), n.step())
}

// AddPath installs the routing steps (and links) for reaching dstHost
// along the given switch path; the last element is the host itself.
func (n *Network) AddPath(dstHost string, path ...string) error {
	if len(path) < 2 {
		return fmt.Errorf("sdn: path to %s needs at least two nodes", dstHost)
	}
	for i := 0; i+1 < len(path); i++ {
		if err := n.AddLink(path[i], path[i+1]); err != nil {
			return err
		}
		hop := ndlog.NewTuple("hop", ndlog.Str(dstHost), ndlog.Str(path[i]), ndlog.Str(path[i+1]))
		if err := n.sess.Insert(n.controller, hop, n.step()); err != nil {
			return err
		}
	}
	return nil
}

// AddIntent installs an operator intent: traffic matching (src, dst)
// prefixes is routed toward dstHost with the given priority.
func (n *Network) AddIntent(prio int64, src, dst ndlog.Prefix, dstHost string) error {
	t := ndlog.NewTuple("intent", ndlog.Int(prio), src, dst, ndlog.Str(dstHost))
	return n.sess.Insert(n.controller, t, n.step())
}

// RemoveIntent deletes a previously installed intent (rule expiration).
func (n *Network) RemoveIntent(prio int64, src, dst ndlog.Prefix, dstHost string) error {
	t := ndlog.NewTuple("intent", ndlog.Int(prio), src, dst, ndlog.Str(dstHost))
	return n.sess.Delete(n.controller, t, n.step())
}

// AddMirror installs a mirroring intent on a switch (the DPI tap).
func (n *Network) AddMirror(sw string, src, dst ndlog.Prefix, mirrorDst string) error {
	t := ndlog.NewTuple("mirrorIntent", ndlog.Str(sw), src, dst, ndlog.Str(mirrorDst))
	return n.sess.Insert(n.controller, t, n.step())
}

// AddStaticEntry installs a hard-coded flow entry directly on a switch.
func (n *Network) AddStaticEntry(sw string, prio int64, src, dst ndlog.Prefix, nxt string) error {
	t := ndlog.NewTuple("staticEntry", ndlog.Int(prio), src, dst, ndlog.Str(nxt))
	return n.sess.Insert(sw, t, n.step())
}

// RemoveStaticEntry deletes a hard-coded entry.
func (n *Network) RemoveStaticEntry(sw string, prio int64, src, dst ndlog.Prefix, nxt string) error {
	t := ndlog.NewTuple("staticEntry", ndlog.Int(prio), src, dst, ndlog.Str(nxt))
	return n.sess.Delete(sw, t, n.step())
}

// PinStaticEntry declares a hard-coded entry off-limits for DiffProv
// (§4.7's immutable static flow entry): a pin on the session, which every
// world over it and over its later clones reads.
func (n *Network) PinStaticEntry(sw string, prio int64, src, dst ndlog.Prefix, nxt string) {
	t := ndlog.NewTuple("staticEntry", ndlog.Int(prio), src, dst, ndlog.Str(nxt))
	n.sess.Pin(sw, t)
}

// LoadConfigFile marks a router configuration (by checksum) as loaded on
// a switch; its lines then install flow entries.
func (n *Network) LoadConfigFile(sw string, file ndlog.ID) error {
	return n.sess.Insert(sw, ndlog.NewTuple("configFile", file), n.step())
}

// AddConfigLine adds one parsed line of a router configuration.
func (n *Network) AddConfigLine(sw string, file ndlog.ID, prio int64, src, dst ndlog.Prefix, nxt string) error {
	t := ndlog.NewTuple("configLine", file, ndlog.Int(prio), src, dst, ndlog.Str(nxt))
	return n.sess.Insert(sw, t, n.step())
}

// RemoveConfigLine deletes a configuration line (and thus its entry).
func (n *Network) RemoveConfigLine(sw string, file ndlog.ID, prio int64, src, dst ndlog.Prefix, nxt string) error {
	t := ndlog.NewTuple("configLine", file, ndlog.Int(prio), src, dst, ndlog.Str(nxt))
	return n.sess.Delete(sw, t, n.step())
}

// InjectPacket sends a packet into the network at a switch, returning the
// tick at which it entered.
func (n *Network) InjectPacket(sw string, h Header) (int64, error) {
	tick := n.step()
	return tick, n.sess.Insert(sw, h.Tuple(), tick)
}

// Run processes all pending events.
func (n *Network) Run() error { return n.sess.Run() }

// Arrived reports whether the packet was ever delivered to the node in
// the live execution.
func (n *Network) Arrived(node string, h Header) bool {
	return n.sess.Live().ExistsEver(node, h.Tuple())
}

// ArrivalTree returns the provenance tree of the packet's arrival at the
// node, reconstructing provenance by replay if necessary.
func (n *Network) ArrivalTree(node string, h Header) (*provenance.Tree, error) {
	_, g, err := n.sess.Graph()
	if err != nil {
		return nil, err
	}
	ap := g.LastAppear(node, h.Tuple())
	if ap == nil {
		return nil, fmt.Errorf("sdn: packet %s never arrived at %s", h, node)
	}
	return g.Tree(ap.ID), nil
}

// FlowTable returns the live flow entries of a switch.
func (n *Network) FlowTable(sw string) []ndlog.Tuple {
	return n.sess.Live().LiveTuples(sw, "flowEntry")
}
