// Package rpc provides the wire transport of the real deployment plane:
// data providers exported over TCP with stdlib net/rpc + gob, and a
// client-side Directory that dials them on demand. The in-process plane
// (core.Cluster) and this package implement the same client.Conn
// contract, so the BlobSeer client code is transport-agnostic.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"sync"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/provider"
)

// StoreArgs is the wire form of a chunk store request.
type StoreArgs struct {
	User string
	ID   chunk.ID
	Data []byte
}

// FetchArgs is the wire form of a chunk fetch request.
type FetchArgs struct {
	User string
	ID   chunk.ID
}

// FetchReply carries a fetched chunk payload.
type FetchReply struct {
	Data []byte
}

// RemoveArgs is the wire form of a chunk remove request.
type RemoveArgs struct {
	ID chunk.ID
}

// StatsReply carries provider statistics.
type StatsReply struct {
	Stats provider.Stats
}

// ListChunksArgs is the wire form of one chunk-inventory page request.
type ListChunksArgs struct {
	After chunk.ID // resume after this ID (zero = from the start)
	Limit int      // page size (≤ 0 = server default)
}

// ListChunksReply carries one inventory page. More reports whether
// another page follows (resume with After = last returned ID).
type ListChunksReply struct {
	Chunks []provider.ChunkInfo
	More   bool
}

// PurgeArgs is the wire form of a bulk wholesale chunk removal.
type PurgeArgs struct {
	IDs []chunk.ID
}

// PurgeReply reports how many chunks were present and the bytes freed.
type PurgeReply struct {
	Purged int
	Freed  int64
}

// LeaseChunksArgs is the wire form of a writer-lease registration or
// renewal (nil IDs = pure heartbeat).
type LeaseChunksArgs struct {
	LeaseID string
	TTL     time.Duration
	IDs     []chunk.ID
}

// ReleaseLeaseArgs is the wire form of a writer-lease release.
type ReleaseLeaseArgs struct {
	LeaseID string
}

// LeasesReply carries the provider's writer-lease table (expired leases
// included, for the sweep's reaping).
type LeasesReply struct {
	Leases []provider.LeaseInfo
}

// ProviderService exports one data provider over net/rpc.
type ProviderService struct {
	P *provider.Provider

	// Timeout, when positive, bounds every handler's server-side work.
	// net/rpc carries no wire deadline, so an abandoned call would
	// otherwise run its handler to completion no matter how long the
	// store takes; the server enforces its own ceiling instead.
	Timeout time.Duration
}

// handlerCtx returns the context one handler invocation runs under:
// background when no timeout is configured, deadline-bounded otherwise.
// This is the single place the server plane mints contexts — net/rpc
// hands handlers no caller context to thread through.
func (s *ProviderService) handlerCtx() (context.Context, context.CancelFunc) {
	if s.Timeout <= 0 {
		return context.Background(), func() {} //ctxfirst:allow net/rpc carries no wire deadline; cancellation is client-side
	}
	return context.WithTimeout(context.Background(), s.Timeout) //ctxfirst:allow net/rpc carries no wire deadline; the server bounds its own handlers
}

// Store handles chunk writes.
func (s *ProviderService) Store(args *StoreArgs, _ *struct{}) error {
	ctx, cancel := s.handlerCtx()
	defer cancel()
	return s.P.Store(ctx, args.User, args.ID, args.Data)
}

// Fetch handles chunk reads.
func (s *ProviderService) Fetch(args *FetchArgs, reply *FetchReply) error {
	ctx, cancel := s.handlerCtx()
	defer cancel()
	data, err := s.P.Fetch(ctx, args.User, args.ID)
	if err != nil {
		return err
	}
	reply.Data = data
	return nil
}

// Remove handles chunk deletion.
func (s *ProviderService) Remove(args *RemoveArgs, _ *struct{}) error {
	ctx, cancel := s.handlerCtx()
	defer cancel()
	return s.P.Remove(ctx, args.ID)
}

// Stats reports provider counters.
func (s *ProviderService) Stats(_ *struct{}, reply *StatsReply) error {
	reply.Stats = s.P.Stats()
	return nil
}

// ListChunks serves one page of the provider's chunk inventory to the
// garbage collector's sweep.
func (s *ProviderService) ListChunks(args *ListChunksArgs, reply *ListChunksReply) error {
	ctx, cancel := s.handlerCtx()
	defer cancel()
	page, more, err := s.P.ListChunks(ctx, args.After, args.Limit)
	if err != nil {
		return err
	}
	reply.Chunks, reply.More = page, more
	return nil
}

// Purge removes unreferenced chunks wholesale on behalf of the sweep.
func (s *ProviderService) Purge(args *PurgeArgs, reply *PurgeReply) error {
	ctx, cancel := s.handlerCtx()
	defer cancel()
	purged, freed, err := s.P.PurgeChunks(ctx, args.IDs)
	reply.Purged, reply.Freed = purged, freed
	return err
}

// LeaseChunks registers or renews a writer lease: a gateway-side writer
// in another process protects its flushed chunks against this
// provider's purge and a remote GC runner's sweep.
func (s *ProviderService) LeaseChunks(args *LeaseChunksArgs, _ *struct{}) error {
	ctx, cancel := s.handlerCtx()
	defer cancel()
	return s.P.LeaseChunks(ctx, args.LeaseID, args.TTL, args.IDs)
}

// ReleaseLease drops one writer lease.
func (s *ProviderService) ReleaseLease(args *ReleaseLeaseArgs, _ *struct{}) error {
	ctx, cancel := s.handlerCtx()
	defer cancel()
	return s.P.ReleaseLease(ctx, args.LeaseID)
}

// Leases enumerates the provider's writer leases for the sweep.
func (s *ProviderService) Leases(_ *struct{}, reply *LeasesReply) error {
	ctx, cancel := s.handlerCtx()
	defer cancel()
	leases, err := s.P.Leases(ctx)
	if err != nil {
		return err
	}
	reply.Leases = leases
	return nil
}

// Server hosts one provider on a TCP listener.
type Server struct {
	lis  net.Listener
	rpcS *rpc.Server

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{} // accepted conns, closed with the server
}

// ServerOption configures Serve.
type ServerOption func(*ProviderService)

// WithHandlerTimeout bounds every handler's server-side work: net/rpc
// carries no wire deadline, so without it an abandoned call still runs
// its handler to completion.
func WithHandlerTimeout(d time.Duration) ServerOption {
	return func(s *ProviderService) { s.Timeout = d }
}

// Serve exports p on addr (e.g. "127.0.0.1:0") and starts accepting in a
// background goroutine. Close the returned server to stop.
func Serve(p *provider.Provider, addr string, opts ...ServerOption) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s := &Server{lis: lis, rpcS: rpc.NewServer(), conns: make(map[net.Conn]struct{})}
	svc := &ProviderService{P: p}
	for _, o := range opts {
		o(svc)
	}
	if err := s.rpcS.RegisterName("Provider", svc); err != nil {
		lis.Close()
		return nil, err
	}
	go s.acceptLoop()
	return s, nil
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			s.rpcS.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the listener and tears down every accepted connection, so
// clients holding a cached conn see it fail immediately instead of
// talking to a ghost (the Directory then re-resolves on the next call).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = nil
	s.mu.Unlock()
	// Close outside the lock: a TCP close can block in the kernel, and
	// Serve's accept loop takes s.mu on every error to check closed —
	// holding it here would couple their latencies for no benefit.
	err := s.lis.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	return err
}

// deadlineConn wraps the dialed TCP conn and projects the earliest
// pending per-call deadline onto it as a kernel read/write deadline.
// net/rpc itself never sets wire deadlines: without this, a blackholed
// provider holds a call (and, because the client reads responses
// serially, every later call on the conn) hostage until the OS TCP
// timeout. When the earliest deadline fires, the rpc client's input
// loop gets an i/o timeout, fails all pending calls fast, and the
// Directory re-resolves the conn.
type deadlineConn struct {
	net.Conn

	mu      sync.Mutex
	pending map[uint64]time.Time
	next    uint64
}

// track registers one call's deadline and returns its release. The
// wire deadline is always the earliest pending one; with none pending
// it is cleared, so an idle or deadline-free conn never expires.
func (d *deadlineConn) track(deadline time.Time) (release func()) {
	d.mu.Lock()
	id := d.next
	d.next++
	d.pending[id] = deadline
	d.refreshLocked()
	d.mu.Unlock()
	return func() {
		d.mu.Lock()
		delete(d.pending, id)
		d.refreshLocked()
		d.mu.Unlock()
	}
}

func (d *deadlineConn) refreshLocked() {
	var earliest time.Time
	for _, t := range d.pending {
		if earliest.IsZero() || t.Before(earliest) {
			earliest = t
		}
	}
	// SetDeadline only arms a timer in the netpoller — no wire I/O —
	// so holding d.mu across it is safe.
	// SetDeadline arms a netpoller timer without touching the wire, so
	// holding the pending-map mutex across it is safe (and blockfacts
	// knows it as a pure helper).
	_ = d.Conn.SetDeadline(earliest)
}

// Conn is a TCP connection to a remote provider; it implements
// client.Conn and the chunk-deletion side of selfopt's pool contract.
type Conn struct {
	c  *rpc.Client
	dc *deadlineConn

	// timeout, when positive, is applied to calls whose ctx carries no
	// deadline of its own (WithCallTimeout).
	timeout time.Duration

	// broken, when set, is invoked once on the first fatal transport
	// error (the Directory drops its cached entry and re-resolves).
	broken     func()
	brokenOnce sync.Once
}

// ConnOption configures dialed connections.
type ConnOption func(*Conn)

// WithCallTimeout gives every call without its own ctx deadline a
// default per-call deadline, enforced on the wire.
func WithCallTimeout(d time.Duration) ConnOption {
	return func(c *Conn) { c.timeout = d }
}

// DialContext connects to a provider server, honouring ctx cancellation
// and deadline during TCP establishment.
func DialContext(ctx context.Context, addr string, opts ...ConnOption) (*Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	dc := &deadlineConn{Conn: nc, pending: make(map[uint64]time.Time)}
	c := &Conn{c: rpc.NewClient(dc), dc: dc}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// connBroken reports whether a call error means the underlying rpc
// client is (or is about to be) dead: any transport-level failure kills
// the shared input loop and with it every later call on this conn.
// Application errors come back as rpc.ServerError strings and match
// none of these.
func connBroken(err error) bool {
	if err == nil {
		return false
	}
	var ne net.Error
	return errors.Is(err, rpc.ErrShutdown) ||
		errors.As(err, &ne) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed)
}

func (c *Conn) markBroken() {
	c.brokenOnce.Do(func() {
		if c.broken != nil {
			c.broken()
		}
	})
}

// call issues an async rpc call and waits for either its completion or
// ctx cancellation. The call's deadline (its ctx's, or the conn default)
// is enforced on the wire via the deadline conn, so a blackholed
// provider fails the call at the deadline instead of the OS timeout. On
// cancellation the caller stops waiting immediately; the in-flight
// call's goroutine drains itself when the reply arrives (net/rpc
// buffers Done by one).
func (c *Conn) call(ctx context.Context, method string, args, reply any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
			defer cancel()
		}
	}
	tracked := false
	if dl, ok := ctx.Deadline(); ok && c.dc != nil {
		release := c.dc.track(dl)
		defer release()
		tracked = true
	}
	call := c.c.Go(method, args, reply, make(chan *rpc.Call, 1))
	select {
	case <-ctx.Done():
		if tracked && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The same deadline just fired on the wire: the rpc client's
			// input loop is dying on the i/o timeout, taking the conn
			// with it. Invalidate now rather than on the next call.
			c.markBroken()
		}
		return ctx.Err()
	case done := <-call.Done:
		if connBroken(done.Error) {
			c.markBroken()
		}
		return done.Error
	}
}

// Store implements client.Conn.
func (c *Conn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	return c.call(ctx, "Provider.Store", &StoreArgs{User: user, ID: id, Data: data}, &struct{}{})
}

// Fetch implements client.Conn.
func (c *Conn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	var reply FetchReply
	if err := c.call(ctx, "Provider.Fetch", &FetchArgs{User: user, ID: id}, &reply); err != nil {
		return nil, err
	}
	return reply.Data, nil
}

// Remove drops one chunk reference on the remote provider.
func (c *Conn) Remove(ctx context.Context, id chunk.ID) error {
	return c.call(ctx, "Provider.Remove", &RemoveArgs{ID: id}, &struct{}{})
}

// Stats fetches remote provider counters.
func (c *Conn) Stats() (provider.Stats, error) {
	var reply StatsReply
	err := c.c.Call("Provider.Stats", &struct{}{}, &reply)
	if connBroken(err) {
		c.markBroken()
	}
	return reply.Stats, err
}

// ListChunks fetches one page of the remote provider's chunk inventory.
func (c *Conn) ListChunks(ctx context.Context, after chunk.ID, limit int) ([]provider.ChunkInfo, bool, error) {
	var reply ListChunksReply
	if err := c.call(ctx, "Provider.ListChunks", &ListChunksArgs{After: after, Limit: limit}, &reply); err != nil {
		return nil, false, err
	}
	return reply.Chunks, reply.More, nil
}

// Purge removes unreferenced chunks wholesale on the remote provider.
func (c *Conn) Purge(ctx context.Context, ids []chunk.ID) (int, int64, error) {
	var reply PurgeReply
	if err := c.call(ctx, "Provider.Purge", &PurgeArgs{IDs: ids}, &reply); err != nil {
		return 0, 0, err
	}
	return reply.Purged, reply.Freed, nil
}

// LeaseChunks implements client.ChunkLeaser over the wire: a writer's
// lease protections survive process boundaries, so a gateway's
// unpublished writer is honoured by a GC runner sweeping the same
// provider from another process.
func (c *Conn) LeaseChunks(ctx context.Context, leaseID string, ttl time.Duration, ids []chunk.ID) error {
	return c.call(ctx, "Provider.LeaseChunks", &LeaseChunksArgs{LeaseID: leaseID, TTL: ttl, IDs: ids}, &struct{}{})
}

// ReleaseLease implements client.ChunkLeaser over the wire.
func (c *Conn) ReleaseLease(ctx context.Context, leaseID string) error {
	return c.call(ctx, "Provider.ReleaseLease", &ReleaseLeaseArgs{LeaseID: leaseID}, &struct{}{})
}

// Leases fetches the remote provider's writer-lease table (the sweep's
// lease enumeration).
func (c *Conn) Leases(ctx context.Context) ([]provider.LeaseInfo, error) {
	var reply LeasesReply
	if err := c.call(ctx, "Provider.Leases", &struct{}{}, &reply); err != nil {
		return nil, err
	}
	return reply.Leases, nil
}

var _ client.ChunkLeaser = (*Conn)(nil)

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// Directory resolves provider IDs to TCP connections, caching dials. It
// implements client.Directory. A conn that fails fatally (shut-down rpc
// client, transport error) is dropped from the cache immediately, so
// one dead TCP session never poisons calls to a restarted provider.
type Directory struct {
	opts []ConnOption

	mu    sync.Mutex
	addrs map[string]string
	conns map[string]*Conn
}

// NewDirectory returns a directory over a providerID → address map.
// opts are applied to every dialed conn (e.g. WithCallTimeout).
func NewDirectory(addrs map[string]string, opts ...ConnOption) *Directory {
	d := &Directory{
		opts:  opts,
		addrs: make(map[string]string, len(addrs)),
		conns: make(map[string]*Conn),
	}
	for k, v := range addrs {
		d.addrs[k] = v
	}
	return d
}

// Register adds or updates a provider address (dropping any cached conn).
func (d *Directory) Register(id, addr string) {
	d.mu.Lock()
	d.addrs[id] = addr
	c := d.conns[id]
	delete(d.conns, id)
	d.mu.Unlock()
	// Close the evicted conn outside the lock: closing tears down a TCP
	// session and must not stall concurrent Lookups of healthy providers
	// — the same rule that keeps DialContext out of the critical section.
	if c != nil {
		_ = c.Close()
	}
}

// Lookup implements client.Directory.
func (d *Directory) Lookup(ctx context.Context, id string) (client.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	if c, ok := d.conns[id]; ok {
		d.mu.Unlock()
		return c, nil
	}
	addr, ok := d.addrs[id]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rpc: unknown provider %q", id)
	}
	// Dial outside the lock with the caller's ctx: a blackholed provider
	// must not stall lookups of healthy ones for the OS connect timeout,
	// and cancelling the caller aborts the connection attempt.
	c, err := DialContext(ctx, addr, d.opts...)
	if err != nil {
		return nil, err
	}
	// Wire the invalidation callback before publishing: the first fatal
	// transport error evicts this conn so the very next Lookup re-dials
	// (a restarted provider on the same address is reached again without
	// waiting for a re-registration).
	c.broken = func() { d.drop(id, c) }
	d.mu.Lock()
	if cached, ok := d.conns[id]; ok {
		// Lost a concurrent dial race; keep the first cached conn.
		d.mu.Unlock()
		_ = c.Close()
		return cached, nil
	}
	if cur, ok := d.addrs[id]; !ok || cur != addr {
		// Re-registered (or removed) while dialing: the conn points at a
		// stale address — drop it and resolve afresh.
		d.mu.Unlock()
		_ = c.Close()
		return d.Lookup(ctx, id)
	}
	d.conns[id] = c
	d.mu.Unlock()
	return c, nil
}

// drop evicts one conn from the cache — only if it is still the cached
// entry for id — and closes it. Called from the conn's broken callback.
func (d *Directory) drop(id string, c *Conn) {
	d.mu.Lock()
	if d.conns[id] == c {
		delete(d.conns, id)
	}
	d.mu.Unlock()
	// Close outside the lock, same as Register's eviction path.
	_ = c.Close()
}

// Close closes all cached connections.
func (d *Directory) Close() error {
	// Detach the cache under the lock, close outside it: the teardowns
	// do network I/O and must not block a concurrent Register/Lookup.
	d.mu.Lock()
	conns := d.conns
	d.conns = make(map[string]*Conn)
	d.mu.Unlock()
	var firstErr error
	for _, c := range conns {
		if err := c.Close(); err != nil && firstErr == nil && !errors.Is(err, rpc.ErrShutdown) {
			firstErr = err
		}
	}
	return firstErr
}
