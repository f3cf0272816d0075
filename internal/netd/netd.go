// Package netd implements the network door servers that extend the kernel
// door mechanism transparently over the network (§3.3): forwarding door
// invocations between machines and mapping door identifiers to and from an
// extended network form.
//
// Each machine (kernel.Kernel) runs one Server. Exporting a door assigns
// it a key in the server's export table; the pair (address, key) is the
// door identifier's network form. Importing a descriptor fabricates a
// proxy door whose target forwards calls over a pooled TCP connection.
// Distributed reference counting is sound by construction: every
// descriptor shipped carries one reference at its exporter, and a proxy
// door's unreferenced notification releases it — so a door stays alive
// exactly as long as identifiers for it exist anywhere, and server-side
// unreferenced notifications keep working across machines. A door
// re-imported by its home machine is unwrapped to the real door rather
// than proxied; doors traveling A→B→C form proxy chains (the Spring
// network servers shortcut these; the chain is semantically equivalent).
//
// The server also publishes named bootstrap roots: whole objects
// (marshalled through their subcontracts) that remote machines fetch to
// obtain their first object — typically a naming context.
//
// # Failure semantics
//
// Purely refcount-based distributed collection (Spring's network servers
// included) leaks an exporter's entries forever when a peer dies without
// releasing its references; the paper left the repair out of scope. Here
// a peer-liveness layer bounds it. Every connection opens with a session
// handshake (a hello frame carrying the peer's per-process instance
// identity) and exchanges heartbeats; exported references are tagged with
// the receiving peer's session. When a peer crashes or partitions and
// stays gone past the lease grace period, the exporter reclaims that
// session's references exactly as if the peer had released them: export
// entries drain and unreferenced notifications fire, so server state
// (per-open files, mid-chain proxy doors) is cleaned up and the release
// cascade propagates down proxy chains.
//
// The importer side contains failures symmetrically: calls on a dead
// connection fail fast in the kernel.ErrCommFailure class (retryable, so
// reconnectable and replicon recover); a per-address circuit breaker with
// exponential backoff and a half-open probe keeps calls to a dead peer
// from each paying a dial timeout; release messages that cannot be sent
// are queued and replayed when the peer returns; and once a peer has been
// unreachable past the grace period the proxy doors imported from it are
// poisoned — their references were reclaimed over there — so they fail in
// O(1) until the application re-resolves. Intervals are configured with
// Config; the fault-injection harness in internal/faultnet drives all of
// this deterministically in tests.
package netd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/trace"
)

// Errors returned by network door operations. All transport-level failures
// wrap kernel.ErrCommFailure so subcontracts classify them uniformly.
var (
	// ErrNoRoot is returned when a requested bootstrap root is not
	// published.
	ErrNoRoot = errors.New("netd: no such root")
	// ErrClosed is returned when operating on a closed server.
	ErrClosed = errors.New("netd: server closed")
	// ErrBreakerOpen is returned (wrapped in kernel.ErrCommFailure) while
	// the per-address circuit breaker is open: the peer failed recently
	// and the backoff period has not lapsed, so the call fails in O(1)
	// instead of paying a dial timeout.
	ErrBreakerOpen = errors.New("netd: peer breaker open")
	// ErrLeaseExpired is returned (wrapped in kernel.ErrCommFailure) from
	// a proxy door poisoned by lease loss: its exporter was unreachable
	// past the grace period and must be presumed to have reclaimed the
	// references behind the proxy.
	ErrLeaseExpired = errors.New("netd: peer lease expired")
)

// exportEntry tracks one exported door: the server's own identifier for
// it and, per peer session, how many references that peer holds.
type exportEntry struct {
	h    kernel.Handle
	held map[*session]int
	// inline is the door's adaptive inline-eligibility state (E20), kept
	// per operation: calls to a promoted op execute directly on the
	// reader goroutine. Seeded from the door's explicit hint (kernel
	// Door.SetInline, which promotes every op), then driven by observed
	// completion times.
	inline *dispatch.OpInline
}

// newExportEntry adopts ref into the export table's entry shape.
func (s *Server) newExportEntry(ref kernel.Ref, held map[*session]int) *exportEntry {
	inline := dispatch.NewOpInline(ref.InlineHint())
	return &exportEntry{h: s.dom.AdoptRef(ref), held: held, inline: inline}
}

func (e *exportEntry) total() int {
	n := 0
	for _, c := range e.held {
		n += c
	}
	return n
}

// Config carries the transport, liveness and containment tunables. Zero
// fields take the documented defaults; defaulting happens in one place
// (withDefaults, at Start). cmd/springfsd and cmd/fsh expose these as
// flags.
type Config struct {
	// CallTimeout bounds the reply wait of one forwarded call (further
	// bounded by the invocation context's deadline). Default 10s.
	CallTimeout time.Duration
	// DialTimeout bounds one connection attempt. Default 3s.
	DialTimeout time.Duration
	// HeartbeatInterval is how often an otherwise idle connection is
	// pinged. Default 1s.
	HeartbeatInterval time.Duration
	// LeaseGrace is how long a peer may be silent (no frames on any
	// connection) or disconnected before its session's references are
	// reclaimed, and symmetrically how long an importer waits before
	// poisoning proxies from an unreachable exporter. Default 10s.
	LeaseGrace time.Duration
	// BreakerBackoff is the breaker's first open period after a failed
	// dial; it doubles per consecutive failure up to BreakerMaxBackoff.
	// Defaults 100ms and 15s.
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// BulkThreshold is the payload size, in bytes, at or above which a
	// connection that negotiated CapBulkRegions hands the payload over as
	// a shared region instead of copying it through the frame stream.
	// Default 8KiB (below it the grant bookkeeping costs more than the
	// copy it saves).
	BulkThreshold int
	// Stripes is the number of connections dialled per peer address
	// (E21): one writer goroutine and one socket per stripe, so pipelined
	// callers stop serializing behind a single stream. Calls are routed
	// across the stripes by a cheap per-goroutine hash; when more than
	// one stripe is live the last is dedicated to bulk payloads
	// (≥ BulkThreshold), so a large transfer cannot head-of-line block
	// small calls. All stripes to one peer share one hello-derived
	// session — leases, heartbeats and netd.sessions_live count peers,
	// not connections. Default GOMAXPROCS/2 clamped to [1, 8]; 1
	// preserves the single-connection behavior exactly.
	Stripes int
	// Transport supplies the listener, dialer and capability set
	// (transport tiers, fault injection). Nil defaults to TCPTransport.
	Transport Transport
	// StateFile, when set, makes the server durable (E19): the
	// session/lease table, labeled exports and the instance identity are
	// persisted there (atomically, from the sweeper), and a server
	// restarted against the same file rejoins the network under its old
	// identity. Empty disables persistence.
	StateFile string
	// Rebinder resolves a persisted export label back to a live door
	// reference on restart (ownership of the returned reference passes
	// to the server). Labels come from LabelDoor and the automatic
	// "root:<name>/<i>" family; see RootRebinder. Nil means labeled
	// exports are not recovered.
	Rebinder func(label string) (kernel.Ref, bool)
	// Dispatch tunes the server-side dispatch engine (E20): the worker
	// pool incoming calls execute on, the adaptive inline fast path, and
	// bounded admission. The zero value takes the documented defaults.
	Dispatch DispatchConfig
}

// DispatchConfig sizes the serve-side dispatch engine. Zero fields take
// the documented defaults; negative values disable the corresponding
// mechanism where noted.
type DispatchConfig struct {
	// Workers is the worker-pool width (and shard count). Default
	// GOMAXPROCS, clamped to [1, 64].
	Workers int
	// MaxInflight caps admitted-and-unreplied calls across the whole
	// server; past it calls are shed immediately with a retryable
	// kernel.ErrOverload instead of queueing without bound. Default
	// 1024; negative means unlimited.
	MaxInflight int
	// MaxPerPeer caps admitted calls per peer connection, so one hot
	// client cannot consume the whole server bound. Default
	// MaxInflight/2 (0 falls back with MaxInflight); negative means
	// unlimited.
	MaxPerPeer int
	// InlineBudget is how much handler execution time one reader may
	// spend inline per read batch before falling back to the pool.
	// Default 200µs; negative disables the inline fast path.
	InlineBudget time.Duration
	// InlineThreshold is the completion time under which a handler
	// counts toward inline promotion (and over which it is demoted).
	// Default 50µs; negative means nothing is ever promoted.
	InlineThreshold time.Duration
	// Disable reverts to the pre-E20 goroutine-per-call serve path (no
	// engine, no admission bound, no inline path). The E20 bench uses it
	// as its baseline.
	Disable bool
}

// withDefaults is the single defaulting path: every zero field takes its
// documented default, and the result is the exact configuration the
// server runs with (Server keeps the normalized copy).
func (cfg Config) withDefaults() Config {
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.LeaseGrace == 0 {
		cfg.LeaseGrace = 10 * time.Second
	}
	if cfg.BreakerBackoff == 0 {
		cfg.BreakerBackoff = 100 * time.Millisecond
	}
	if cfg.BreakerMaxBackoff == 0 {
		cfg.BreakerMaxBackoff = 15 * time.Second
	}
	if cfg.BulkThreshold == 0 {
		cfg.BulkThreshold = 8 << 10
	}
	if cfg.Stripes == 0 {
		cfg.Stripes = runtime.GOMAXPROCS(0) / 2
	}
	if cfg.Stripes < 1 {
		cfg.Stripes = 1
	} else if cfg.Stripes > 8 {
		cfg.Stripes = 8
	}
	if cfg.Transport == nil {
		cfg.Transport = TCPTransport{}
	}
	if !cfg.Dispatch.Disable {
		if cfg.Dispatch.MaxInflight == 0 {
			cfg.Dispatch.MaxInflight = 1024
		}
		if cfg.Dispatch.MaxPerPeer == 0 {
			if cfg.Dispatch.MaxInflight > 0 {
				cfg.Dispatch.MaxPerPeer = cfg.Dispatch.MaxInflight / 2
			} else {
				cfg.Dispatch.MaxPerPeer = -1
			}
		}
		if cfg.Dispatch.InlineBudget == 0 {
			cfg.Dispatch.InlineBudget = 200 * time.Microsecond
		}
		if cfg.Dispatch.InlineThreshold == 0 {
			cfg.Dispatch.InlineThreshold = 50 * time.Microsecond
		}
	}
	return cfg
}

// Option adjusts the configuration a Server starts with.
type Option func(*Config)

// With overlays an explicit Config: each non-zero field replaces the
// accumulated value and zero fields leave it alone, so it composes with
// the other options in either order (it is the bridge from
// flag-structured code — build a Config, pass With(cfg)).
func With(cfg Config) Option {
	return func(c *Config) {
		if cfg.CallTimeout != 0 {
			c.CallTimeout = cfg.CallTimeout
		}
		if cfg.DialTimeout != 0 {
			c.DialTimeout = cfg.DialTimeout
		}
		if cfg.HeartbeatInterval != 0 {
			c.HeartbeatInterval = cfg.HeartbeatInterval
		}
		if cfg.LeaseGrace != 0 {
			c.LeaseGrace = cfg.LeaseGrace
		}
		if cfg.BreakerBackoff != 0 {
			c.BreakerBackoff = cfg.BreakerBackoff
		}
		if cfg.BreakerMaxBackoff != 0 {
			c.BreakerMaxBackoff = cfg.BreakerMaxBackoff
		}
		if cfg.BulkThreshold != 0 {
			c.BulkThreshold = cfg.BulkThreshold
		}
		if cfg.Stripes != 0 {
			c.Stripes = cfg.Stripes
		}
		if cfg.Transport != nil {
			c.Transport = cfg.Transport
		}
		if cfg.StateFile != "" {
			c.StateFile = cfg.StateFile
		}
		if cfg.Rebinder != nil {
			c.Rebinder = cfg.Rebinder
		}
		if cfg.Dispatch != (DispatchConfig{}) {
			c.Dispatch = cfg.Dispatch
		}
	}
}

// WithDispatch tunes the serve-side dispatch engine (worker pool width,
// admission bounds, inline fast path).
func WithDispatch(dc DispatchConfig) Option {
	return func(c *Config) { c.Dispatch = dc }
}

// WithTransport selects the transport tier.
func WithTransport(t Transport) Option { return func(c *Config) { c.Transport = t } }

// WithBulkThreshold sets the bulk hand-off threshold in bytes.
func WithBulkThreshold(n int) Option { return func(c *Config) { c.BulkThreshold = n } }

// WithStripes sets the number of connections dialled per peer address.
func WithStripes(n int) Option { return func(c *Config) { c.Stripes = n } }

// WithStateFile makes the server durable: its session/lease table and
// labeled exports persist to path, and a restart against the same path
// rejoins under the old instance identity.
func WithStateFile(path string) Option { return func(c *Config) { c.StateFile = path } }

// WithRebinder sets the label resolver a durable server uses on restart
// to reattach persisted export keys to live doors.
func WithRebinder(fn func(label string) (kernel.Ref, bool)) Option {
	return func(c *Config) { c.Rebinder = fn }
}

// Server is one machine's network door server.
type Server struct {
	dom       *kernel.Domain
	ln        net.Listener
	addr      string
	transport Transport
	mapper    RegionMapper // the transport's bulk tier, nil if none
	caps      Capability   // advertised in hellos (mapper-gated)
	instance  uint64       // random per-process identity, sent in hellos

	// cfg is the normalized configuration, fixed at Start (the sweeper
	// and forwarders read it concurrently, so it is not settable
	// afterwards).
	cfg Config

	mu        sync.Mutex
	exports   map[uint64]*exportEntry
	byDoor    map[uint64]uint64 // door identity → export key
	nextKey   uint64
	nextEpoch uint64
	roots     map[string]*core.Object
	conns     map[string]*stripeSet  // dialled stripe sets, pooled by address
	allConns  map[*conn]struct{}     // every live connection, for teardown
	dialing   map[string]*dialFlight // singleflight: one dial/heal per address
	sessions  map[uint64]*session    // peer instance → lease session
	peers     map[string]*peerState
	closed    bool

	// Durability (E19): labels names the exports worth recovering after
	// a restart, pendingLabels holds labels assigned before the door was
	// first exported (door identity → label), and stateDirty gates the
	// sweeper's state-file flush.
	labels        map[uint64]string
	pendingLabels map[uint64]string
	stateDirty    bool

	// connCache mirrors conns for the lock-free forward fast path; it is
	// maintained under mu at every conns mutation and may only lag by
	// holding a stripe set with dead conns (pick skips them) or missing
	// one.
	connCache sync.Map

	// Serve-side dispatch (E20): eng is the worker pool incoming calls
	// execute on (nil under Dispatch.Disable — the legacy goroutine per
	// call), inflight the server-wide admission counter against
	// cfg.Dispatch.MaxInflight.
	eng      *dispatch.Engine
	inflight atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// dialFlight is one in-progress dial (or stripe-set heal) that concurrent
// callers for the same address wait on instead of dialling themselves
// (and instead of each reporting a spurious outcome to the circuit
// breaker).
type dialFlight struct {
	done chan struct{} // closed once ss/err are set
	ss   *stripeSet
	err  error
}

// stripeSet is the dialled connection group for one peer address (E21).
// The live slice is copy-on-write: heals publish a new slice, connClosed
// removes dead members, and readers route lock-free through pick. When
// more than one stripe is live the last is the dedicated bulk stripe;
// positions do not persist across heals. All members share the peer's
// one hello-derived session.
type stripeSet struct {
	addr string
	want int // Config.Stripes at creation

	// conns is the published live-stripe slice; mutations happen under
	// Server.mu, loads are lock-free.
	conns atomic.Pointer[[]*conn]
	// degraded marks the set as missing stripes; the next forward that
	// reaches the slow path heals it. healAt rate-limits heal attempts
	// that could not complete the set (unix nanos before which healing
	// is suppressed and the live remainder serves alone).
	degraded atomic.Bool
	healAt   atomic.Int64
	// counted is the number of stripes reflected in the netd.stripes_live
	// gauge for this set; guarded by Server.mu. It can transiently
	// overcount by a stripe that died in the instant between dialling
	// and publication — the next heal recomputes it.
	counted int
}

// live returns the current published stripe slice (possibly containing
// conns that died since publication; pick skips those).
func (ss *stripeSet) live() []*conn {
	if p := ss.conns.Load(); p != nil {
		return *p
	}
	return nil
}

// pick routes one call to a stripe: bulk payloads go to the dedicated
// last stripe, small calls spread over the rest by a per-goroutine hash —
// so concurrent callers fan out across sockets while one goroutine's
// pipelined calls stay FIFO on one stripe. Dead stripes are skipped by
// linear probe; nil means no live stripe remains.
func (ss *stripeSet) pick(bulk bool) *conn {
	conns := ss.live()
	n := len(conns)
	if n == 0 {
		return nil
	}
	var i int
	switch {
	case n == 1:
		// A lone stripe carries everything (Stripes=1, or a degraded set
		// down to its last conn).
	case bulk:
		i = n - 1
	default:
		i = int(goroutineHint() % uint64(n-1))
	}
	for j := 0; j < n; j++ {
		if c := conns[(i+j)%n]; !c.isDead() {
			return c
		}
	}
	return nil
}

// remove drops c from the published slice, reporting whether it was
// present. Callers hold Server.mu.
func (ss *stripeSet) remove(c *conn) bool {
	cur := ss.live()
	for i, cc := range cur {
		if cc == c {
			next := make([]*conn, 0, len(cur)-1)
			next = append(next, cur[:i]...)
			next = append(next, cur[i+1:]...)
			ss.conns.Store(&next)
			return true
		}
	}
	return false
}

// goroutineHint derives a cheap per-goroutine routing value from the
// address of a stack local: goroutine stacks are disjoint, so concurrent
// callers spread across stripes, while one goroutine's pipelined calls
// tend to stay on one stripe (a stack move can migrate it; correctness
// does not depend on stability — request ids are per-conn).
func goroutineHint() uint64 {
	var x byte
	h := uint64(uintptr(unsafe.Pointer(&x)))
	h *= 0x9E3779B97F4A7C15 // fibonacci mix: stack addresses share low bits
	return h >> 33
}

// Start launches a network door server for dom's kernel, listening on
// listenAddr ("127.0.0.1:0" picks a free TCP port; address syntax beyond
// that belongs to the configured transport — SameMachine accepts
// "unix:/path"). dom should be a dedicated domain for the network
// server. Options adjust the configuration; zero fields take the
// documented defaults in one place.
func Start(dom *kernel.Domain, listenAddr string, opts ...Option) (*Server, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	cfg = cfg.withDefaults()
	ln, err := cfg.Transport.Listen(listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netd: listen: %w", err)
	}
	mapper := mapperOf(cfg.Transport)
	caps := cfg.Transport.Capabilities()
	if mapper == nil {
		caps &^= CapBulkRegions // advertised only when actually mappable
	}
	s := &Server{
		dom:       dom,
		ln:        ln,
		addr:      canonicalAddr(ln),
		transport: cfg.Transport,
		mapper:    mapper,
		caps:      caps,
		instance:  rand.Uint64(),
		cfg:       cfg,
		exports:   make(map[uint64]*exportEntry),
		byDoor:    make(map[uint64]uint64),
		nextKey:   1,
		roots:     make(map[string]*core.Object),
		conns:     make(map[string]*stripeSet),
		allConns:  make(map[*conn]struct{}),
		dialing:   make(map[string]*dialFlight),
		sessions:  make(map[uint64]*session),
		peers:     make(map[string]*peerState),
		stop:      make(chan struct{}),

		labels:        make(map[uint64]string),
		pendingLabels: make(map[uint64]string),
	}
	if !cfg.Dispatch.Disable {
		// One engine serves the whole server: incoming calls, and the
		// kernel's unreferenced-notification drains (a mass release
		// reclaimed off the wire runs on a pool worker instead of its
		// own goroutine). The per-shard queue bound is belt to the
		// admission counter's suspenders — admission keeps the queues
		// under MaxInflight, the bound catches anything that slips by.
		qlen := 0
		if cfg.Dispatch.MaxInflight > 0 {
			qlen = cfg.Dispatch.MaxInflight
		}
		s.eng = dispatch.New(dispatch.Config{Workers: cfg.Dispatch.Workers, QueueLen: qlen})
		dom.Kernel().SetUnrefDispatcher(func(drain func()) {
			if s.eng.Submit(0, drain) != nil {
				go drain() // engine closing; fall back to the default
			}
		})
	}
	if cfg.StateFile != "" {
		if err := s.loadState(); err != nil {
			_ = ln.Close()
			if s.eng != nil {
				dom.Kernel().SetUnrefDispatcher(nil)
				s.eng.Close()
			}
			return nil, err
		}
		// Make the identity durable before serving: a crash before the
		// first sweep must not mint a new instance on the next boot.
		s.flushState()
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.sweeper()
	return s, nil
}

// Addr returns the server's advertised address.
func (s *Server) Addr() string { return s.addr }

// Instance returns the server's per-process instance identity — random
// at first boot, restored from the state file by a durable restart.
func (s *Server) Instance() uint64 { return s.instance }

// Close stops the listener, the liveness sweeper, and tears down all
// connections. In-flight calls fail with communications errors. A
// durable server flushes its state file first, so a clean shutdown
// restarts with current tables.
func (s *Server) Close() error {
	s.flushState()
	return s.shutdown()
}

// Kill tears the server down without flushing the state file — the
// SIGKILL simulation for crash tests: the state file stays whatever the
// sweeper last wrote, exactly as after a power loss.
func (s *Server) Kill() error { return s.shutdown() }

func (s *Server) shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.allConns))
	for c := range s.allConns {
		conns = append(conns, c)
	}
	gConns.Add(int64(-len(s.allConns)))
	gSessions.Add(int64(-len(s.sessions)))
	gExports.Add(int64(-len(s.exports)))
	for _, sess := range s.sessions {
		sess.expired = true // reject exports from lingering in-flight calls
	}
	for _, p := range s.peers {
		gReleasesQueued.Add(int64(-len(p.queue)))
		p.queue = nil
	}
	for _, ss := range s.conns {
		gStripes.Add(int64(-ss.counted))
		ss.counted = 0
	}
	s.conns = make(map[string]*stripeSet)
	s.allConns = make(map[*conn]struct{})
	s.sessions = make(map[uint64]*session)
	s.connCache.Range(func(k, _ any) bool {
		s.connCache.Delete(k)
		return true
	})
	s.mu.Unlock()

	close(s.stop)
	err := s.ln.Close()
	for _, c := range conns {
		c.fail(ErrClosed)
	}
	if s.eng != nil {
		// Restore the kernel's default unref dispatch, then drain the
		// engine: queued serve tasks observe their dead connections and
		// reduce to releasing the resources the parked requests carried
		// (buffers, door refs, bulk-region grants). The drain runs in the
		// background because a worker may be inside a user handler that
		// outlives the server — the goroutine-per-call path abandoned such
		// handlers at Close, and Close must not block on user code now
		// either.
		s.dom.Kernel().SetUnrefDispatcher(nil)
		go s.eng.Close()
	}
	s.wg.Wait()
	return err
}

// commErr wraps a transport failure in the kernel's communications class.
func commErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", kernel.ErrCommFailure, fmt.Sprintf(format, args...))
}

// stats is the network door servers' metrics block: one entry per
// forwarded call, with deadline/cancellation endings broken out.
// serveStats meters the other direction — calls arriving off the wire and
// dispatched into local doors — so a daemon that mostly *serves* still has
// a live exposition (springfsd -scstats).
var (
	stats      = scstats.For("netd")
	serveStats = scstats.For("netd(serve)")
)

// Interned span names for the traced data path (see internal/trace):
// spanSend brackets the whole client leg of a forwarded call — its span ID
// rides the wire header, so everything the server records nests under it;
// spanServe brackets the server-side door dispatch; spanReply marks the
// moment the reply frame was queued.
var (
	spanSend  = trace.Name("netd.send")
	spanServe = trace.Name("netd.serve")
	spanReply = trace.Name("netd.reply")
	// spanDispatchWait brackets a queued call's time in the dispatch
	// engine's run queue (enqueue → a worker picks it up), separating
	// queue wait from run time in the trace waterfall. Inline calls
	// never open it.
	spanDispatchWait = trace.Name("netd.dispatch.wait")
)

// ---------------------------------------------------------------------
// Export / import of door identifiers.

// exportSlot maps an in-flight door reference to its network form,
// transferring the reference into the export table, held under the lease
// session of the connection it ships over.
func (s *Server) exportSlot(slot buffer.Door, c *conn) (descriptor, error) {
	ref, ok := slot.(kernel.Ref)
	if !ok {
		return descriptor{}, fmt.Errorf("netd: cannot export %T", slot)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := c.sess
	if sess == nil || sess.expired {
		return descriptor{}, commErr("no live session to export over")
	}
	if key, ok := s.byDoor[ref.DoorID()]; ok {
		s.exports[key].held[sess]++
		sess.refs[key]++
		if _, labeled := s.labels[key]; labeled {
			s.markDirtyLocked()
		}
		ref.Release() // the table's handle already keeps the door alive
		return descriptor{Addr: s.addr, Key: key}, nil
	}
	key := s.nextKey
	s.nextKey++
	doorID := ref.DoorID()
	s.exports[key] = s.newExportEntry(ref, map[*session]int{sess: 1})
	s.byDoor[doorID] = key
	sess.refs[key] = 1
	if label, ok := s.pendingLabels[doorID]; ok {
		delete(s.pendingLabels, doorID)
		s.labels[key] = label
		s.markDirtyLocked()
	}
	gExports.Add(1)
	return descriptor{Addr: s.addr, Key: key}, nil
}

// importDesc converts a network form back into a kernel door reference: a
// proxy door for remote descriptors, the real door for one coming home.
// A fabricated proxy captures the exporter address's current import
// epoch; if the exporter later stays unreachable past the lease grace
// period the epoch is bumped and the proxy is poisoned.
func (s *Server) importDesc(desc descriptor) (kernel.Ref, error) {
	if desc.Addr == s.addr {
		// One of our own doors returning home: unwrap to the real door,
		// consuming the remote reference the descriptor carried.
		s.mu.Lock()
		defer s.mu.Unlock()
		e, ok := s.exports[desc.Key]
		if !ok {
			return kernel.Ref{}, fmt.Errorf("netd: stale home descriptor key %d", desc.Key)
		}
		ref, err := s.dom.RefOf(e.h)
		if err != nil {
			return kernel.Ref{}, err
		}
		s.releaseAnyLocked(desc.Key, 1)
		return ref, nil
	}
	s.mu.Lock()
	p := s.peerLocked(desc.Addr)
	epoch := p.epoch.Load()
	s.mu.Unlock()
	// The peerState pointer is captured so the per-call poison check is
	// one atomic load, not a trip through s.mu; peer entries are never
	// removed, so the pointer stays valid for the proxy's lifetime.
	proc := func(req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
		return s.forward(desc, p, epoch, req, info)
	}
	unref := func() { s.release(desc, p, epoch, 1) }
	h, _ := s.dom.CreateDoorInfo(proc, unref)
	ref, err := s.dom.RefOf(h)
	if err != nil {
		return kernel.Ref{}, err
	}
	if err := s.dom.DeleteDoor(h); err != nil {
		return kernel.Ref{}, err
	}
	return ref, nil
}

// removeExportLocked deletes an export entry whose last reference is
// gone. Callers hold s.mu.
func (s *Server) removeExportLocked(key uint64, e *exportEntry) {
	delete(s.exports, key)
	for id, k := range s.byDoor {
		if k == key {
			delete(s.byDoor, id)
			break
		}
	}
	if _, ok := s.labels[key]; ok {
		delete(s.labels, key)
		s.markDirtyLocked()
	}
	if !s.closed { // Close bulk-decrements the whole table
		gExports.Add(-1)
	}
	// Delete outside the map bookkeeping but still under s.mu; the
	// kernel delivers any unreferenced notification asynchronously.
	_ = s.dom.DeleteDoor(e.h)
}

// releaseLocked drops remote references held by sess from an export
// entry, deleting the table's identifier when none remain anywhere.
// Callers hold s.mu.
func (s *Server) releaseLocked(sess *session, key uint64, count int) {
	e, ok := s.exports[key]
	if !ok {
		return
	}
	have := e.held[sess]
	if count > have {
		count = have // clamp a buggy double-release
	}
	e.held[sess] -= count
	if e.held[sess] <= 0 {
		delete(e.held, sess)
	}
	if sess.refs[key] -= count; sess.refs[key] <= 0 {
		delete(sess.refs, key)
	}
	if _, labeled := s.labels[key]; labeled {
		s.markDirtyLocked()
	}
	if len(e.held) == 0 {
		s.removeExportLocked(key, e)
	}
}

// releaseAnyLocked drops count references from key without knowing the
// holding session (home-unwrapped descriptors). Callers hold s.mu.
func (s *Server) releaseAnyLocked(key uint64, count int) {
	e, ok := s.exports[key]
	if !ok {
		return
	}
	for sess, n := range e.held {
		if count <= 0 {
			break
		}
		take := n
		if take > count {
			take = count
		}
		count -= take
		e.held[sess] -= take
		if e.held[sess] <= 0 {
			delete(e.held, sess)
		}
		if sess.refs[key] -= take; sess.refs[key] <= 0 {
			delete(sess.refs, key)
		}
	}
	if _, labeled := s.labels[key]; labeled {
		s.markDirtyLocked()
	}
	if len(e.held) == 0 {
		s.removeExportLocked(key, e)
	}
}

// release notifies a remote exporter that count references died here. If
// the peer is unreachable — or the connection dies with the frame still
// queued — the release is requeued and replayed by the sweeper once the
// peer returns; if our lease there has lapsed the exporter already
// reclaimed the references and the message is moot.
func (s *Server) release(desc descriptor, p *peerState, epoch uint64, count int) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if p.epoch.Load() != epoch {
		s.mu.Unlock()
		return
	}
	var c *conn
	if ss, ok := s.conns[desc.Addr]; ok {
		c = ss.pick(false) // any live stripe will do for a release
	}
	if c == nil {
		s.queueReleaseLocked(p, desc.Key, count)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	payload := buffer.Get(32)
	payload.WriteByte(msgRelease)
	payload.WriteUint64(desc.Key)
	payload.WriteUvarint(uint64(count))
	requeue := func() {
		s.mu.Lock()
		if !s.closed && p.epoch.Load() == epoch {
			s.queueReleaseLocked(p, desc.Key, count)
		}
		s.mu.Unlock()
	}
	if err := c.sendDrop(payload, requeue); err != nil {
		requeue()
	}
}

// Exports reports the number of live export entries (observability).
func (s *Server) Exports() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.exports)
}

// ---------------------------------------------------------------------
// Client side: forwarding calls through proxy doors.

// forward executes one door call against a remote descriptor. The
// invocation context governs the whole leg: an already-ended context
// aborts before anything is sent, the wire header ships the remaining
// budget so the server machine inherits it, and the reply wait is bounded
// by min(s.cfg.CallTimeout, remaining budget) and by the cancellation channel.
func (s *Server) forward(desc descriptor, p *peerState, epoch uint64, req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
	begin := stats.Begin()
	// The send span opens before forwardInfo writes the wire header, so
	// the header carries this span's ID and the server side's spans become
	// its children.
	sp := trace.Begin(info, spanSend)
	reply, err := s.forwardInfo(desc, p, epoch, req, info)
	sp.End(info, err)
	// One clock pair covers both the netd aggregate and the per-peer RED
	// histogram: EndCall returns the duration it measured.
	d := stats.EndCall(begin, scstats.OpNone, info.ExemplarTrace(), err)
	p.red.Record(d, info.ExemplarTrace(), err)
	return reply, err
}

// dropAbandonedReply disposes of a reply no waiter will read, releasing
// the bulk region grant a codeOK payload may carry. in must be positioned
// at the code byte.
func (s *Server) dropAbandonedReply(in *buffer.Buffer) {
	if code, err := in.ReadByte(); err == nil && code == codeOK {
		s.dropWireRegion(in)
	}
}

// abandonCall withdraws a pending request whose caller is giving up
// (timeout, cancellation, send failure). Usually the waiter wins the
// shard-lock race and the future is recycled directly; when it loses,
// the entry was removed by a settle whose ready signal follows the
// removal immediately, so the bounded drain inside abandon is safe — and
// a reply that raced in is disposed of here: left parked, its bulk
// region grant would sit in the ring until the whole connection died.
func (s *Server) abandonCall(c *conn, reqID uint64, fut *callFuture) {
	c.abandon(reqID, fut, func(reply *buffer.Buffer) {
		s.dropAbandonedReply(reply)
		buffer.PutShell(reply)
	})
}

// settleReply consumes a settled future on the ready path: a delivered
// reply is parsed (and its frame shell recycled), anything else is the
// connection's death notice. The future returns to the pool here — the
// waiter is its sole owner once the ready signal is drained.
func (s *Server) settleReply(fut *callFuture, desc descriptor) (*buffer.Buffer, error) {
	st := fut.state.Load()
	reply := fut.reply
	fut.reply = nil
	putFuture(fut)
	if st != futDelivered {
		return nil, commErr("connection to %s lost", desc.Addr)
	}
	res, err := s.parseReply(reply, desc)
	buffer.PutShell(reply)
	return res, err
}

func (s *Server) forwardInfo(desc descriptor, p *peerState, epoch uint64, req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
	if err := info.Err(); err != nil {
		return nil, err
	}
	if p.epoch.Load() != epoch {
		return nil, fmt.Errorf("%w: proxy door to %s: %w", kernel.ErrCommFailure, desc.Addr, ErrLeaseExpired)
	}
	// Bulk steering happens at routing, by payload size alone: even
	// without a region tier, isolating large frames on their own stripe
	// is what keeps them from head-of-line blocking small calls.
	c, err := s.getConn(desc.Addr, req.Size() >= s.cfg.BulkThreshold)
	if err != nil {
		return nil, err
	}
	hint := 64 + req.Size()
	if s.bulkEligible(c, req) {
		hint = 128 // the payload travels as a region, not in the frame
	}
	payload := buffer.Get(hint)
	payload.WriteByte(msgCall)
	reqID, fut := c.register()
	payload.WriteUint64(reqID)
	payload.WriteUint64(desc.Key)
	putInfoHeader(payload, info)
	if err := s.putWireBuffer(payload, req, c, false); err != nil {
		s.abandonCall(c, reqID, fut)
		buffer.Put(payload)
		return nil, err
	}
	if err := c.send(payload); err != nil {
		s.abandonCall(c, reqID, fut)
		return nil, commErr("send to %s: %v", desc.Addr, err)
	}
	wait := s.cfg.CallTimeout
	deadlineBounded := false
	if rem, ok := info.Remaining(); ok && rem < wait {
		wait = rem
		deadlineBounded = true
	}
	var cancel <-chan struct{}
	if info != nil {
		cancel = info.Cancel
	}
	timer := fut.armTimer(wait)
	select {
	case <-fut.ready:
		timer.Stop()
		return s.settleReply(fut, desc)
	case <-cancel:
		timer.Stop()
		s.abandonCall(c, reqID, fut)
		return nil, fmt.Errorf("netd: call to %s: %w", desc.Addr, kernel.ErrCancelled)
	case <-timer.C:
		s.abandonCall(c, reqID, fut)
		if deadlineBounded {
			return nil, fmt.Errorf("netd: call to %s: %w", desc.Addr, kernel.ErrDeadlineExceeded)
		}
		return nil, commErr("call to %s timed out after %v", desc.Addr, s.cfg.CallTimeout)
	}
}

// parseReply decodes a reply payload positioned after its request id.
func (s *Server) parseReply(reply *buffer.Buffer, desc descriptor) (*buffer.Buffer, error) {
	code, err := reply.ReadByte()
	if err != nil {
		return nil, commErr("truncated reply from %s", desc.Addr)
	}
	switch code {
	case codeOK:
		return s.getWireBuffer(reply)
	case codeRevoked:
		return nil, fmt.Errorf("netd: remote door %s/%d: %w", desc.Addr, desc.Key, kernel.ErrRevoked)
	case codeBadKey:
		return nil, fmt.Errorf("netd: remote door %s/%d: %w", desc.Addr, desc.Key, kernel.ErrBadHandle)
	case codeDeadline:
		return nil, fmt.Errorf("netd: remote door %s/%d: %w", desc.Addr, desc.Key, kernel.ErrDeadlineExceeded)
	case codeCancelled:
		return nil, fmt.Errorf("netd: remote door %s/%d: %w", desc.Addr, desc.Key, kernel.ErrCancelled)
	case codeOverload:
		return nil, fmt.Errorf("netd: remote door %s/%d shed at admission: %w", desc.Addr, desc.Key, kernel.ErrOverload)
	default:
		msg, _ := reply.ReadString()
		return nil, fmt.Errorf("netd: remote call failed: %s", msg)
	}
}

// getConn returns a live connection to addr — the stripe pick() chose
// for this caller — establishing the stripe set (with its session
// handshakes) if needed. The steady-state lookup is one sync.Map load
// plus the routing arithmetic — no lock, no contention with other
// callers or the liveness sweeper. bulk steers the call to the dedicated
// bulk stripe when the set has one.
func (s *Server) getConn(addr string, bulk bool) (*conn, error) {
	if v, ok := s.connCache.Load(addr); ok {
		ss := v.(*stripeSet)
		if c := ss.pick(bulk); c != nil {
			// A degraded set whose heal is due goes to the slow path even
			// though a live stripe could serve; while heals are
			// suppressed (healAt), the live remainder serves alone.
			if !ss.degraded.Load() || time.Now().UnixNano() < ss.healAt.Load() {
				return c, nil
			}
		}
	}
	return s.getConnSlow(addr, bulk)
}

// getConnSlow establishes (or waits for) the stripe set to addr, healing
// a degraded one by dialling only its missing stripes. Fully dead sets
// are pruned so the next call redials cold; dials are admitted by the
// per-address circuit breaker; and concurrent cold calls to one address
// share a single flight (singleflight) instead of stampeding — one
// flight's outcome is reported to the breaker exactly once, however many
// stripes it dialled.
func (s *Server) getConnSlow(addr string, bulk bool) (*conn, error) {
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		var heal *stripeSet
		if ss, ok := s.conns[addr]; ok {
			healDue := ss.degraded.Load() && time.Now().UnixNano() >= ss.healAt.Load()
			if c := ss.pick(bulk); c != nil && !healDue {
				s.mu.Unlock()
				return c, nil
			}
			alive := 0
			for _, lc := range ss.live() {
				if !lc.isDead() {
					alive++
				}
			}
			if alive == 0 {
				// The whole set is dead: prune it so the address redials
				// cold below, through the breaker like any first dial.
				delete(s.conns, addr)
				s.connCache.Delete(addr)
				gStripes.Add(int64(-ss.counted))
				ss.counted = 0
			} else {
				heal = ss // dial only the missing stripes
			}
		}
		if f, ok := s.dialing[addr]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-s.stop:
				return nil, ErrClosed
			}
			if f.err != nil {
				return nil, f.err
			}
			if c := f.ss.pick(bulk); c != nil {
				return c, nil
			}
			if attempt >= 1 {
				return nil, commErr("connection to %s lost", addr)
			}
			continue // the shared flight's conns died already; try once more
		}
		p := s.peerLocked(addr)
		if heal == nil && !s.breakerAdmitLocked(p, time.Now()) {
			// Heals skip breaker admission: a live stripe proves the peer
			// is reachable, and the flight still reports its outcome.
			until := time.Until(p.openUntil).Round(time.Millisecond)
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s: %w (next probe in %v)", kernel.ErrCommFailure, addr, ErrBreakerOpen, until)
		}
		f := &dialFlight{done: make(chan struct{})}
		s.dialing[addr] = f
		s.mu.Unlock()

		ss, err := s.healStripes(addr, heal)
		s.mu.Lock()
		delete(s.dialing, addr)
		p = s.peerLocked(addr)
		if err != nil {
			s.breakerFailLocked(p)
		} else {
			s.breakerOKLocked(p)
			if s.closed {
				err = ErrClosed
			}
		}
		f.ss, f.err = ss, err
		s.mu.Unlock()
		close(f.done)
		if err != nil {
			return nil, err
		}
		if c := ss.pick(bulk); c != nil {
			return c, nil
		}
		return nil, commErr("connection to %s lost", addr)
	}
}

// healStripes brings addr's stripe set to its configured width, dialling
// the missing stripes in parallel (all of them, for a cold address) and
// publishing the result under s.mu. It fails only when no live stripe
// remains at all; a partial heal publishes what it got, marks the set
// degraded and suppresses re-heals for a breaker-backoff period so an
// address that can only sustain some stripes is not re-dialled per call.
func (s *Server) healStripes(addr string, ss *stripeSet) (*stripeSet, error) {
	want := s.cfg.Stripes
	if ss == nil {
		ss = &stripeSet{addr: addr, want: want}
	}
	keep := make([]*conn, 0, want)
	for _, c := range ss.live() {
		if !c.isDead() {
			keep = append(keep, c)
		}
	}
	need := want - len(keep)
	dialed := make([]*conn, need)
	errs := make([]error, need)
	if need > 0 {
		var wg sync.WaitGroup
		for i := 0; i < need; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				dialed[i], errs[i] = s.dialAndHello(addr)
			}(i)
		}
		wg.Wait()
	}
	next := keep
	var firstErr error
	for i, c := range dialed {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		next = append(next, c)
	}
	if len(next) == 0 {
		if firstErr == nil {
			firstErr = commErr("connection to %s lost", addr)
		}
		return nil, firstErr
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for _, c := range dialed {
			if c != nil {
				c.fail(ErrClosed)
			}
		}
		return nil, ErrClosed
	}
	// Re-filter at publication: a stripe can die during a sibling's dial,
	// and its connClosed could not remove it (it was not published yet).
	live := next[:0]
	for _, c := range next {
		if !c.isDead() {
			live = append(live, c)
		}
	}
	published := append([]*conn(nil), live...)
	ss.conns.Store(&published)
	gStripes.Add(int64(len(published) - ss.counted))
	ss.counted = len(published)
	if len(published) < want {
		ss.degraded.Store(true)
		ss.healAt.Store(time.Now().Add(s.cfg.BreakerBackoff).UnixNano())
	} else {
		ss.degraded.Store(false)
		ss.healAt.Store(0)
	}
	s.conns[addr] = ss
	s.connCache.Store(addr, ss)
	s.mu.Unlock()
	if len(published) == 0 {
		return nil, commErr("connection to %s lost", addr)
	}
	return ss, nil
}

// dialAndHello dials addr (bounded by DialTimeout), starts the read
// loop, and completes the session handshake: our hello goes out first,
// and the connection is not usable until the peer's hello arrives.
func (s *Server) dialAndHello(addr string) (*conn, error) {
	netc, err := s.timedDial(addr)
	if err != nil {
		return nil, commErr("dial %s: %v", addr, err)
	}
	c := s.newConn(netc)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.fail(ErrClosed)
		return nil, ErrClosed
	}
	s.allConns[c] = struct{}{}
	epoch := s.nextEpoch
	s.nextEpoch++
	s.mu.Unlock()
	gConns.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serveConn(c, addr)
	}()
	if err := s.sendHello(c, epoch); err != nil {
		c.fail(commErr("hello to %s: %v", addr, err))
		return nil, commErr("hello to %s: %v", addr, err)
	}
	select {
	case <-c.helloed:
		return c, nil
	case <-c.done:
		return nil, commErr("connection to %s lost during handshake", addr)
	case <-time.After(s.cfg.DialTimeout):
		c.fail(commErr("hello from %s timed out", addr))
		return nil, commErr("hello from %s timed out", addr)
	}
}

// timedDial bounds one dial attempt by DialTimeout regardless of the
// transport's own behavior.
func (s *Server) timedDial(addr string) (net.Conn, error) {
	type result struct {
		c   net.Conn
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := s.transport.Dial(addr)
		ch <- result{c, err}
	}()
	select {
	case r := <-ch:
		return r.c, r.err
	case <-time.After(s.cfg.DialTimeout):
		go func() { // reap the eventual result
			if r := <-ch; r.c != nil {
				_ = r.c.Close()
			}
		}()
		return nil, fmt.Errorf("timeout after %v", s.cfg.DialTimeout)
	}
}

// ---------------------------------------------------------------------
// Server side: accepting and serving connections.

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		netc, err := s.ln.Accept()
		if err != nil {
			return
		}
		c := s.newConn(netc)
		c.accepted = true // our hello goes out from handleHello
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.fail(ErrClosed)
			return
		}
		s.allConns[c] = struct{}{}
		s.mu.Unlock()
		gConns.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(c, "")
		}()
	}
}

// serveConn demultiplexes one connection: replies complete pending
// requests; hellos bind the session; pings are answered; calls, releases
// and root requests are served (only after the session handshake — a
// peer that skips it is violating the protocol and is cut off). addr is
// the pool key for dialled connections ("" for accepted ones).
func (s *Server) serveConn(c *conn, addr string) {
	// Buffered reads are the receive half of the write coalescing: a
	// peer's flush arrives as one TCP segment train, and the buffered
	// reader drains many frames per read syscall instead of paying two
	// (header, payload) each.
	br := bufio.NewReaderSize(c.netc, 64<<10)
	// budget is the inline fast path's allowance for the current read
	// batch: handler time spent executing calls directly on this
	// goroutine. It refills whenever the buffered reader runs dry —
	// i.e. when the next read would block, so the frames behind us are
	// not waiting on the handler in front of them.
	budget := s.cfg.Dispatch.InlineBudget
	var rel []releasePair // reused across batches by the release coalescer
	for {
		if br.Buffered() == 0 {
			budget = s.cfg.Dispatch.InlineBudget
		}
		frame, err := readFrame(br)
		if err != nil {
			break
		}
		c.lastRecv.Store(time.Now().UnixNano())
		if !s.serveFrame(c, br, frame, &rel, &budget) {
			break
		}
	}
	s.connClosed(c, addr)
}

// serveFrame handles one decoded frame for serveConn, reporting whether
// the connection should keep being served. The frame is wrapped in a
// pooled buffer shell (no copy, no heap header per frame); replies hand
// the shell to the waiting caller, every other path recycles it here.
func (s *Server) serveFrame(c *conn, br *bufio.Reader, frame []byte, rel *[]releasePair, budget *time.Duration) bool {
	in := buffer.Wrap(frame, nil)
	msg, err := in.ReadByte()
	if err != nil {
		buffer.PutShell(in)
		return false
	}
	switch msg {
	case msgHello:
		instance, err1 := in.ReadUint64()
		epoch, err2 := in.ReadUint64()
		listenAddr, err3 := in.ReadString()
		peerCaps, err4 := in.ReadUint32()
		peerMachine, err5 := in.ReadUint64()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			buffer.PutShell(in)
			return false
		}
		s.handleHello(c, instance, epoch, listenAddr, peerCaps, peerMachine)
	case msgPing:
		pong := buffer.Get(1)
		pong.WriteByte(msgPong)
		_ = c.send(pong)
	case msgPong:
		// lastRecv above is all a pong is for.
	case msgReply:
		reqID, err := in.ReadUint64()
		if err != nil {
			break
		}
		if c.deliver(reqID, in) {
			// The shell now belongs to the waiting caller (settleReply
			// recycles it); the frame bytes stay alive through it.
			return true
		}
		// The caller abandoned the reply (timeout, cancel); if it
		// carried a bulk region, release it rather than stranding
		// it in the ring until the connection dies.
		s.dropAbandonedReply(in)
	case msgCall:
		if !c.hasSession() {
			buffer.PutShell(in)
			return false
		}
		reqID, err1 := in.ReadUint64()
		key, err2 := in.ReadUint64()
		if err1 != nil || err2 != nil {
			break
		}
		info, err := getInfoHeader(in)
		if err != nil {
			s.reply(c, reqID, codeError, nil, err.Error())
			break
		}
		req, err := s.getWireBuffer(in)
		if err != nil {
			s.reply(c, reqID, codeError, nil, err.Error())
			break
		}
		// req aliases (or copied) the frame; the shell itself is done.
		s.dispatchCall(c, reqID, key, req, info, budget)
	case msgRelease:
		if !c.hasSession() {
			buffer.PutShell(in)
			return false
		}
		key, err1 := in.ReadUint64()
		count, err2 := in.ReadUvarint()
		if err1 != nil || err2 != nil {
			break
		}
		// A release burst (a dropped proxy tree, a cache eviction
		// sweep) arrives as consecutive frames in one flush; peel
		// the whole run off the buffered reader and apply it in a
		// single locked pass instead of paying s.mu per frame.
		*rel = append((*rel)[:0], releasePair{key: key, count: int64(count)})
		*rel = coalesceReleases(br, *rel)
		s.mu.Lock()
		for _, r := range *rel {
			s.releaseLocked(c.sess, r.key, int(r.count))
		}
		s.mu.Unlock()
	case msgRoot:
		if !c.hasSession() {
			buffer.PutShell(in)
			return false
		}
		reqID, err := in.ReadUint64()
		if err != nil {
			break
		}
		name, err := in.ReadString()
		if err != nil {
			break
		}
		s.handleRoot(c, reqID, name)
	}
	buffer.PutShell(in)
	return true
}

// dispatchCall routes one incoming call through the dispatch engine
// (E20): admission first (server-wide and per-peer in-flight bounds —
// past either, the call is shed immediately with a retryable overload
// reply instead of queueing to death), then the inline fast path (a door
// whose adaptive state proves it non-blocking executes right here on the
// reader goroutine, spending the batch's inline budget), and otherwise
// the worker pool, queued at the priority the wire context carried.
// budget points at the reader's remaining per-batch inline allowance.
func (s *Server) dispatchCall(c *conn, reqID, key uint64, req *buffer.Buffer, info *kernel.Info, budget *time.Duration) {
	if s.eng == nil { // Dispatch.Disable: the pre-E20 goroutine per call
		go s.handleCall(c, reqID, key, req, info)
		return
	}
	if !s.admitServe(c) {
		s.shed(c, reqID, req)
		return
	}
	s.mu.Lock()
	e, ok := s.exports[key]
	s.mu.Unlock()
	if !ok {
		s.doneServe(c)
		kernel.ReleaseBufferDoors(req)
		buffer.Put(req)
		s.reply(c, reqID, codeBadKey, nil, "")
		return
	}
	// Inline eligibility is per operation: a door's fast reads may run
	// here while its blocking writes still go to the pool.
	op, perr := req.PeekUint32()
	h, ist := e.h, e.inline.For(op, perr == nil)
	if *budget > 0 && ist.Eligible() {
		start := time.Now()
		s.runCall(c, reqID, h, req, info)
		d := time.Since(start)
		*budget -= d
		ist.Observe(d, s.cfg.Dispatch.InlineThreshold)
		dispatch.NoteInline()
		s.doneServe(c)
		return
	}
	var prio int32
	if info != nil {
		prio = info.Priority
	}
	spWait := trace.Begin(info, spanDispatchWait)
	err := s.eng.Submit(prio, func() {
		spWait.End(info, nil)
		if c.isDead() {
			// The connection died while the call was parked in the run
			// queue: there is nobody to reply to, so reduce to releasing
			// what the request carried — door references, the buffer,
			// and (through the region-backed Put) any bulk-region grant.
			kernel.ReleaseBufferDoors(req)
			buffer.Put(req)
			s.doneServe(c)
			return
		}
		start := time.Now()
		s.runCall(c, reqID, h, req, info)
		ist.Observe(time.Since(start), s.cfg.Dispatch.InlineThreshold)
		s.doneServe(c)
	})
	if err != nil {
		spWait.End(info, err)
		s.doneServe(c)
		if errors.Is(err, dispatch.ErrSaturated) {
			s.shed(c, reqID, req)
			return
		}
		// Engine closed: the server is going down; no reply will be
		// deliverable anyway.
		kernel.ReleaseBufferDoors(req)
		buffer.Put(req)
	}
}

// admitServe claims one admission slot for a call from c, enforcing the
// server-wide and per-peer in-flight bounds. Every admitted call must be
// matched by doneServe.
func (s *Server) admitServe(c *conn) bool {
	if max := int64(s.cfg.Dispatch.MaxInflight); max > 0 && s.inflight.Add(1) > max {
		s.inflight.Add(-1)
		return false
	} else if max <= 0 {
		s.inflight.Add(1)
	}
	if max := int64(s.cfg.Dispatch.MaxPerPeer); max > 0 && c.inflight.Add(1) > max {
		c.inflight.Add(-1)
		s.inflight.Add(-1)
		return false
	} else if max <= 0 {
		c.inflight.Add(1)
	}
	return true
}

// doneServe releases the admission slot admitServe claimed.
func (s *Server) doneServe(c *conn) {
	c.inflight.Add(-1)
	s.inflight.Add(-1)
}

// shed refuses a call at admission: release what the request carried and
// answer with the retryable overload code — O(1) work on the reader, no
// goroutine, no queue entry.
func (s *Server) shed(c *conn, reqID uint64, req *buffer.Buffer) {
	dispatch.NoteShed()
	kernel.ReleaseBufferDoors(req)
	buffer.Put(req)
	s.reply(c, reqID, codeOverload, nil, "")
}

// handleCall is the legacy (Dispatch.Disable) serve path: export lookup
// plus runCall on a per-call goroutine.
func (s *Server) handleCall(c *conn, reqID, key uint64, req *buffer.Buffer, info *kernel.Info) {
	s.mu.Lock()
	e, ok := s.exports[key]
	var h kernel.Handle
	if ok {
		h = e.h
	}
	s.mu.Unlock()
	if !ok {
		kernel.ReleaseBufferDoors(req)
		buffer.Put(req)
		s.reply(c, reqID, codeBadKey, nil, "")
		return
	}
	s.runCall(c, reqID, h, req, info)
}

// runCall executes an incoming forwarded door call under the context
// reconstructed from the wire header, so the exported door sees the
// caller's remaining budget and trace exactly as a local caller's would
// look. (The caller-side cancellation channel cannot cross the wire; a
// cancelled caller simply abandons the reply.) It runs wherever the
// dispatch decision put it: a reader goroutine (inline), a pool worker
// (queued), or a dedicated goroutine (legacy path).
func (s *Server) runCall(c *conn, reqID uint64, h kernel.Handle, req *buffer.Buffer, info *kernel.Info) {
	start := serveStats.Begin()
	sp := trace.Begin(info, spanServe)
	out, err := s.dom.CallInfo(h, req, info)
	sp.End(info, err)
	serveStats.EndCall(start, scstats.OpNone, info.ExemplarTrace(), err)
	trace.Event(info, spanReply)
	switch {
	case err == nil:
		s.reply(c, reqID, codeOK, out, "")
	case errors.Is(err, kernel.ErrDeadlineExceeded):
		s.reply(c, reqID, codeDeadline, nil, "")
	case errors.Is(err, kernel.ErrCancelled):
		s.reply(c, reqID, codeCancelled, nil, "")
	case errors.Is(err, kernel.ErrRevoked):
		s.reply(c, reqID, codeRevoked, nil, "")
	case errors.Is(err, kernel.ErrBadHandle):
		s.reply(c, reqID, codeBadKey, nil, "")
	default:
		s.reply(c, reqID, codeError, nil, err.Error())
	}
	// Both served buffers are dead: the dispatch is over (a skeleton that
	// kept argument bytes copied them — see stubs.Skeleton) and reply()
	// has copied, granted or detached out's payload. Recycling them is
	// what closes the bulk tier's loop — resetting a region-backed req
	// releases its mapped grant, returning pooled storage to the sender's
	// ring side. Leftover door references are released first, as an
	// abandoning client would.
	kernel.ReleaseBufferDoors(req)
	buffer.Put(req)
	buffer.Put(out)
}

// releasePair is one decoded release frame, for the coalescer.
type releasePair struct {
	key   uint64
	count int64
}

// coalesceReleases peels consecutive msgRelease frames off the buffered
// reader without blocking: as long as a complete, well-formed release
// frame is sitting in the buffer it is decoded and consumed, so a burst
// of releases (one flush from the peer) collapses into a single pass
// under the server lock. A frame that is incomplete, not a release, or
// malformed is left untouched for the main loop.
func coalesceReleases(br *bufio.Reader, rel []releasePair) []releasePair {
	for {
		buffered := br.Buffered()
		if buffered < 5 {
			return rel // not even a header + type byte without blocking
		}
		hdr, err := br.Peek(5)
		if err != nil || hdr[4] != msgRelease {
			return rel
		}
		n := int(binary.LittleEndian.Uint32(hdr[:4]))
		if n < 1+8+1 || 4+n > buffered {
			return rel // runt release or payload not fully buffered
		}
		frame, err := br.Peek(4 + n)
		if err != nil {
			return rel
		}
		body := frame[5 : 4+n] // after the type byte
		key := binary.LittleEndian.Uint64(body[:8])
		count, sz := binary.Uvarint(body[8:])
		if sz <= 0 || 8+sz != len(body) {
			return rel // malformed; let the main loop's decoder reject it
		}
		_, _ = br.Discard(4 + n)
		rel = append(rel, releasePair{key: key, count: int64(count)})
	}
}

// reply sends a reply frame for reqID.
func (s *Server) reply(c *conn, reqID uint64, code byte, out *buffer.Buffer, errMsg string) {
	size := 64
	if out != nil && !s.bulkEligible(c, out) {
		size += out.Size()
	}
	payload := buffer.Get(size)
	payload.WriteByte(msgReply)
	payload.WriteUint64(reqID)
	payload.WriteByte(code)
	switch code {
	case codeOK:
		if err := s.putWireBuffer(payload, out, c, true); err != nil {
			// Re-encode as an error reply; the doors are already gone.
			payload.Reset()
			payload.WriteByte(msgReply)
			payload.WriteUint64(reqID)
			payload.WriteByte(codeError)
			payload.WriteString(err.Error())
		}
	case codeError:
		payload.WriteString(errMsg)
	}
	_ = c.send(payload)
}

// ---------------------------------------------------------------------
// Bootstrap roots.

// PublishRoot publishes obj under name: remote machines can fetch a copy
// with ImportRootObject to obtain their first object on this machine. The
// object is retained (copies are marshalled per request, through its
// subcontract).
func (s *Server) PublishRoot(name string, obj *core.Object) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.roots[name] = obj
}

func (s *Server) handleRoot(c *conn, reqID uint64, name string) {
	s.mu.Lock()
	obj, ok := s.roots[name]
	s.mu.Unlock()
	if !ok {
		s.reply(c, reqID, codeError, nil, ErrNoRoot.Error()+": "+name)
		return
	}
	tmp := buffer.Get(64)
	if err := obj.MarshalCopy(tmp); err != nil {
		buffer.Put(tmp)
		s.reply(c, reqID, codeError, nil, err.Error())
		return
	}
	if s.cfg.StateFile != "" {
		// Durable servers label root-marshalled doors before the reply
		// exports them, so a restart can rebind their keys (RootRebinder).
		s.mu.Lock()
		s.labelRootDoorsLocked(name, tmp.Doors())
		s.mu.Unlock()
	}
	s.reply(c, reqID, codeOK, tmp, "")
	buffer.Put(tmp) // reply() copied, granted or detached the payload and took the doors
}

// ImportRootObject fetches the named root object from the server at addr
// and unmarshals it into env (which must belong to this server's kernel).
func (s *Server) ImportRootObject(env *core.Env, addr, name string, expected *core.MTable) (*core.Object, error) {
	c, err := s.getConn(addr, false)
	if err != nil {
		return nil, err
	}
	payload := buffer.Get(32)
	payload.WriteByte(msgRoot)
	reqID, fut := c.register()
	payload.WriteUint64(reqID)
	payload.WriteString(name)
	if err := c.send(payload); err != nil {
		s.abandonCall(c, reqID, fut)
		return nil, commErr("send to %s: %v", addr, err)
	}
	timer := fut.armTimer(s.cfg.CallTimeout)
	select {
	case <-fut.ready:
		timer.Stop()
		buf, err := s.settleReply(fut, descriptor{Addr: addr})
		if err != nil {
			return nil, err
		}
		return core.Unmarshal(env, expected, buf)
	case <-timer.C:
		s.abandonCall(c, reqID, fut)
		return nil, commErr("root fetch from %s timed out", addr)
	}
}
