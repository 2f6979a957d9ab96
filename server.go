package geospanner

// The public surface of the long-lived topology service (internal/serve)
// and its durable write-ahead log (internal/wal): a Server owns one
// maintained network, ingests churn batches as epochs, serves immutable
// epoch snapshots, and — with WithWAL — survives crashes with bit-exact
// recovery. cmd/spannerd is a thin wrapper over exactly this surface.

import (
	"io"

	"geospanner/internal/maintain"
	"geospanner/internal/serve"
	"geospanner/internal/wal"
)

// Topology-service types, re-exported from internal/serve.
type (
	// Server is the long-lived topology service: single writer (Apply),
	// lock-free readers (Current), optional durability (WithWAL).
	Server = serve.Server
	// ServerOption configures NewServer, RecoverServer and RestoreServer.
	ServerOption = serve.Option
	// Epoch is one published immutable topology snapshot.
	Epoch = serve.Epoch
	// EpochStats summarizes the maintenance that produced an epoch.
	EpochStats = serve.EpochStats
	// ServerStats is the cumulative service metrics rollup, including the
	// durability fields of a WAL-backed server.
	ServerStats = serve.Stats
	// ServerTopology is the summary answer of a topology query.
	ServerTopology = serve.Topology
	// RecoverInfo reports what RecoverServer reconstructed: the recovered
	// epoch, the checkpoint it started from, records replayed, and torn
	// tail bytes truncated.
	RecoverInfo = serve.RecoverInfo
	// Scheduler generates deterministic synthetic churn schedules.
	Scheduler = serve.Scheduler
	// SchedulerProfile is a named churn event mix for NewSchedulerProfile
	// (serve.ProfileMove, serve.ProfileMixed, serve.ProfileJoinHeavy).
	SchedulerProfile = serve.Profile
	// KindStats is the cumulative applied/rejected split of one event kind
	// in ServerStats.ByKind.
	KindStats = serve.KindStats
	// WALConfig tunes a server's write-ahead log (checkpoint cadence,
	// segment rotation); the zero value means the defaults. Every append
	// is fsynced before the epoch is acknowledged.
	WALConfig = wal.Config
)

// Wire types of the service's HTTP API (Server.Handler), re-exported so
// clients like cmd/spannerd marshal exactly what the service speaks.
type (
	// EpochRequest is the body of POST /v1/epoch.
	EpochRequest = serve.EpochRequest
	// EpochResponse summarizes an applied epoch.
	EpochResponse = serve.EpochResponse
	// HealthResponse is the answer of GET /healthz.
	HealthResponse = serve.HealthResponse
	// RouteResponse is the answer of GET /v1/route.
	RouteResponse = serve.RouteResponse
	// ErrorResponse is the uniform error envelope of every endpoint:
	// {"error": "...", "code": N} plus per-event details on rejected
	// batches.
	ErrorResponse = serve.ErrorResponse
)

// Versioned event codec types, re-exported from internal/maintain. One
// schema is shared by POST /v1/epoch bodies, WAL records, and schedules.
type (
	// TopologyEvent is one churn event; construct with NewJoin, NewLeave,
	// NewCrash, NewMove.
	TopologyEvent = maintain.Event
	// TopologyWireEvent is the canonical versioned wire form of a
	// TopologyEvent.
	TopologyWireEvent = maintain.WireEvent
	// EventError is one per-record failure of a rejected batch.
	EventError = maintain.EventError
	// ValidationError names every invalid record of a rejected batch;
	// match with errors.As.
	ValidationError = maintain.ValidationError
)

// Churn event constructors — the only way to build TopologyEvents.
var (
	// NewJoin brings a node up at its current slot position.
	NewJoin = maintain.NewJoin
	// NewLeave takes a node down gracefully.
	NewLeave = maintain.NewLeave
	// NewCrash takes a node down abruptly.
	NewCrash = maintain.NewCrash
	// NewMove relocates a node, alive or dead.
	NewMove = maintain.NewMove
)

// EncodeTopologyEvents converts events to their canonical versioned wire
// form; DecodeTopologyEvents validates and inverts it, reporting every
// invalid record through a *ValidationError.
var (
	EncodeTopologyEvents = maintain.EncodeWire
	DecodeTopologyEvents = maintain.DecodeWire
)

// NewServer builds a topology service over the given node positions and
// publishes epoch 0. Feed it churn with Server.Apply (or the HTTP API of
// Server.Handler), read it with Server.Current.
func NewServer(pts []Point, radius float64, opts ...ServerOption) (*Server, error) {
	return serve.New(pts, radius, opts...)
}

// WithWAL makes the server durable: epochs are appended to a write-ahead
// log in dir before they are published, and RecoverServer rebuilds the
// exact pre-crash topology from the directory alone.
func WithWAL(dir string) ServerOption { return serve.WithWAL(dir) }

// WithWALTuning is WithWAL with explicit log tuning.
func WithWALTuning(dir string, cfg WALConfig) ServerOption { return serve.WithWALConfig(dir, cfg) }

// WithWALRetry bounds the storage-failure retry budget of a durable
// server: a failed append is retried up to retries times (preceded by a
// forced compaction and exponential backoff starting at backoff) before
// the server degrades to read-only. Negative retries degrade on the first
// failure.
var WithWALRetry = serve.WithWALRetry

// ErrServerDegraded is the error every write returns while a durable
// server is in read-only degraded mode after persistent storage failure;
// match with errors.Is. Probe and clear with Server.Resync, inspect with
// Server.Degraded.
var ErrServerDegraded = serve.ErrDegraded

// WithFallbackFraction overrides the role-churn fraction above which an
// epoch re-clusters from scratch. A recovered server must be given the
// same fraction the crashed one ran with.
func WithFallbackFraction(f float64) ServerOption { return serve.WithFallbackFraction(f) }

// WithServerTracer attaches a structured-event sink to the service (one
// epoch and one snapshot event per applied batch). It is the service-side
// counterpart of the build-side WithTracer.
func WithServerTracer(t Tracer) ServerOption { return serve.WithTracer(t) }

// RecoverServer rebuilds a durable server from its write-ahead log: newest
// checkpoint, deterministic replay of the logged epochs, torn tail
// truncated. The recovered server's published epoch is bit-identical to
// the crashed server's last durable one, and it keeps logging to dir.
func RecoverServer(dir string, opts ...ServerOption) (*Server, RecoverInfo, error) {
	return serve.Recover(dir, opts...)
}

// RestoreServer rebuilds a server from a Server.Snapshot backup stream;
// combine with WithWAL to resume durably in a fresh directory.
func RestoreServer(r io.Reader, opts ...ServerOption) (*Server, error) {
	return serve.Restore(r, opts...)
}

// HasWAL reports whether dir already holds a topology log — the switch
// between NewServer(WithWAL(dir)) and RecoverServer(dir).
func HasWAL(dir string) bool { return wal.Exists(dir) }

// NewScheduler builds a deterministic synthetic churn generator over a
// mirror of the initial positions: the same seed always yields the same
// schedule, independent of how a server applies it.
func NewScheduler(seed int64, pts []Point, region, radius float64) *Scheduler {
	return serve.NewScheduler(seed, pts, region, radius)
}

// NewSchedulerProfile is NewScheduler with an explicit event-mix profile;
// resolve names ("move", "mixed", "join-heavy") with SchedulerProfileByName.
func NewSchedulerProfile(seed int64, pts []Point, region, radius float64, prof SchedulerProfile) *Scheduler {
	return serve.NewSchedulerProfile(seed, pts, region, radius, prof)
}

// SchedulerProfileByName resolves a built-in churn profile by name.
func SchedulerProfileByName(name string) (SchedulerProfile, bool) {
	return serve.ProfileByName(name)
}
