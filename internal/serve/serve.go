package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"odin/internal/persist"
	"odin/internal/telemetry"
)

// Options configures a control-plane Server.
type Options struct {
	// Shards declares the hosted engines. At least one is required.
	Shards []ShardSpec
	// DataDir, when set, lays each shard's persist cache, snapshot and
	// probe journal out under DataDir/shards/<name>/ (persist.ShardLayout),
	// giving every shard an independent warm-start. Empty means no shard
	// persists anything.
	DataDir string
	// Admission tunes the fleet admission ladder.
	Admission AdmissionOptions
	// RequestTimeout bounds one probe operation end to end, ticket wait
	// included (default 30s).
	RequestTimeout time.Duration
}

// Server hosts N programs across M engine shards behind the versioned
// JSON-over-HTTP control API. Create with New, serve with Start (or mount
// Handler yourself), stop with Close.
type Server struct {
	shards   []*shard
	byName   map[string]*shard
	adm      *admission
	fleetReg *telemetry.Registry
	agg      *telemetry.Aggregate
	mux      *http.ServeMux
	timeout  time.Duration

	httpSrv *http.Server
	ln      net.Listener
}

// New builds the shards (running each boot build, warm caches consulted)
// and assembles the API. On any shard failure the already-built shards are
// torn down.
func New(opts Options) (*Server, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("serve: no shards configured")
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 30 * time.Second
	}

	fleetReg := telemetry.NewRegistry()
	s := &Server{
		byName:   map[string]*shard{},
		adm:      newAdmission(opts.Admission, fleetReg),
		fleetReg: fleetReg,
		agg:      telemetry.NewAggregate("shard"),
		timeout:  opts.RequestTimeout,
	}
	s.agg.Attach("fleet", fleetReg)

	for _, spec := range opts.Shards {
		if _, dup := s.byName[spec.Name]; dup {
			s.teardown()
			return nil, fmt.Errorf("serve: duplicate shard name %q", spec.Name)
		}
		var paths persist.ShardPaths
		if opts.DataDir != "" {
			var err error
			if paths, err = persist.ShardLayout(opts.DataDir, spec.Name); err != nil {
				s.teardown()
				return nil, err
			}
		}
		sh, err := newShard(spec, paths)
		if err != nil {
			s.teardown()
			return nil, err
		}
		s.shards = append(s.shards, sh)
		s.byName[sh.name] = sh
		s.agg.Attach(sh.name, sh.reg)
	}
	s.mux = s.routes()
	return s, nil
}

// teardown closes every shard built so far (quick close, no drain — used
// on construction failure).
func (s *Server) teardown() {
	for _, sh := range s.shards {
		sh.quickClose()
	}
}

// Shards lists the hosted shards in configuration order.
func (s *Server) Shards() []ShardInfo {
	out := make([]ShardInfo, 0, len(s.shards))
	for _, sh := range s.shards {
		out = append(out, ShardInfo{Name: sh.name, Program: sh.program})
	}
	return out
}

// ShardWarmHits reports the boot-time persist hit count of a shard (0 for
// unknown shards) — the warm-start evidence CI asserts on.
func (s *Server) ShardWarmHits(name string) uint64 {
	if sh, ok := s.byName[name]; ok {
		return sh.warmHits()
	}
	return 0
}

// ShardState reports the lifecycle classification of a shard (ShardDead for
// unknown names, so health checks fail safe).
func (s *Server) ShardState(name string) ShardState {
	if sh, ok := s.byName[name]; ok && sh.lc != nil {
		return sh.lc.State()
	}
	return ShardDead
}

// ShardFailovers returns a shard's recent failover events, newest last.
func (s *Server) ShardFailovers(name string) []FailoverEvent {
	if sh, ok := s.byName[name]; ok && sh.lc != nil {
		return sh.lc.Events()
	}
	return nil
}

// Handler returns the control-plane HTTP handler, for embedding the server
// into an existing listener or test harness.
func (s *Server) Handler() http.Handler { return s.mux }

// Fleet assembles the fleet snapshot served at /v1/fleet.
func (s *Server) Fleet() FleetSnapshot {
	snap := FleetSnapshot{
		Tenants:  s.adm.snapshot(),
		InFlight: s.adm.InFlight(),
	}
	for _, sh := range s.shards {
		st := ShardStatus{
			Name:    sh.name,
			Program: sh.program,
			Persist: sh.persistStats(),
		}
		if sh.lc != nil {
			st.State = sh.lc.State().String()
			st.Failovers = sh.lc.Events()
		}
		if slot := sh.current(); slot != nil {
			st.ActiveProbes = slot.eng.Manager.NumActive()
			st.WarmHits = slot.warmHits
			st.Supervisor = slot.sup.Stats()
			st.Health = slot.sup.Health()
			if ra := slot.sup.BreakerRetryAfter(); ra > 0 {
				st.BreakerRetryAfterMS = float64(ra) / float64(time.Millisecond)
			}
		}
		st.Restarts = sh.metrics.restarts.Value()
		st.JournalRecords = sh.journal.records()
		st.JournalDropped = sh.journal.dropped()
		snap.Shards = append(snap.Shards, st)
	}
	return snap
}

// Start begins serving on addr ("host:0" picks a free port) and returns
// the bound address. The HTTP server runs until Close.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen: %w", err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go s.httpSrv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the HTTP front end, drains every shard supervisor (admitted
// work commits; ctx bounds the wait), and closes the engines. Per-shard
// snapshots are written by the drains, so a restart warm-starts each shard
// independently.
func (s *Server) Close(ctx context.Context) error {
	if s.httpSrv != nil {
		shutCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		s.httpSrv.Shutdown(shutCtx)
		cancel()
		s.httpSrv = nil
	}
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.close(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: shard %s: %w", sh.name, err)
		}
	}
	return firstErr
}
