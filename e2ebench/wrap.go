package main

import (
	"flecc/internal/airline"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/wire"
)

// role says what a wrapped endpoint or handler is, which decides the span
// it records.
type role uint8

const (
	roleDM      role = iota // the primary directory manager
	roleCM                  // a view's cache manager
	roleStandby             // the hot standby directory manager
	roleRepl                // the primary's replication link to the standby
)

// tracedNet wraps a transport.Network so that every node attached through it
// gets a traced handler and a traced endpoint. The node named dm is the
// directory manager; any other name is a view.
type tracedNet struct {
	inner transport.Network
	t     *tracer
	dm    string
	role  role // role of the dm node (roleDM or roleStandby)
	// wire collects the wire counters of every dialed TCP connection.
	wire []func() transport.WireStatsSnapshot
}

func (n *tracedNet) Attach(name string, h transport.Handler) (transport.Endpoint, error) {
	r := roleCM
	if name == n.dm {
		r = n.role
	}
	ep, err := n.inner.Attach(name, n.t.wrapHandler(r, name, h))
	if err != nil {
		return nil, err
	}
	if ws, ok := ep.(interface {
		WireStats() transport.WireStatsSnapshot
	}); ok {
		n.wire = append(n.wire, ws.WireStats)
	}
	return n.t.wrapEndpoint(ep, r), nil
}

// wrapHandler times the handler of a node with the given role.
func (t *tracer) wrapHandler(r role, owner string, h transport.Handler) transport.Handler {
	switch r {
	case roleDM:
		return func(req *wire.Message) *wire.Message {
			if !t.on.Load() {
				return h(req)
			}
			s := t.beginDM(req)
			reply := h(req)
			t.endDM(req, s)
			return reply
		}
	case roleCM:
		return func(req *wire.Message) *wire.Message {
			if !t.on.Load() {
				return h(req)
			}
			s := t.beginCMHandler(owner, req)
			reply := h(req)
			t.endCMHandler(owner, s)
			return reply
		}
	case roleStandby:
		return func(req *wire.Message) *wire.Message {
			if !t.on.Load() || req.Type != wire.TReplicate {
				return h(req)
			}
			start := t.now()
			reply := h(req)
			t.recordAbsorb(t.now() - start)
			return reply
		}
	default:
		return h
	}
}

// endpoint times outbound calls. The wrapped endpoint offers CallAsync
// and SetWindow exactly when the inner one does (wrapEndpoint), because
// the program type-asserts for both and takes another path without them.
type endpoint struct {
	inner transport.Endpoint
	t     *tracer
	role  role
}

func (e *endpoint) Name() string { return e.inner.Name() }
func (e *endpoint) Close() error { return e.inner.Close() }

func (e *endpoint) Call(to string, req *wire.Message) (*wire.Message, error) {
	if e.role == roleDM {
		e.t.fanout[req.Type&31].Add(1)
	}
	if !e.t.on.Load() {
		return e.inner.Call(to, req)
	}
	switch e.role {
	case roleCM:
		s := e.t.push(e.inner.Name(), kCall, uint8(req.Type))
		reply, err := e.inner.Call(to, req)
		e.t.pop(e.inner.Name(), s)
		return reply, err
	case roleDM:
		s := e.t.beginFanout(to, req)
		reply, err := e.inner.Call(to, req)
		e.t.endFanout(to, s)
		return reply, err
	case roleRepl:
		id, start := e.t.beginShip()
		reply, err := e.inner.Call(to, req)
		e.t.endShip(id, start)
		return reply, err
	}
	return e.inner.Call(to, req)
}

func (e *endpoint) callAsync(to string, req *wire.Message) *transport.Call {
	ac := e.inner.(transport.AsyncCaller)
	if e.role == roleDM {
		e.t.fanout[req.Type&31].Add(1)
	}
	if e.role != roleRepl || !e.t.on.Load() {
		return ac.CallAsync(to, req)
	}
	id, start := e.t.beginShip()
	c := ac.CallAsync(to, req)
	e.t.shipWG.Add(1)
	go func() {
		defer e.t.shipWG.Done()
		<-c.Done()
		e.t.endShip(id, start)
	}()
	return c
}

type asyncEndpoint struct{ *endpoint }

func (e asyncEndpoint) CallAsync(to string, req *wire.Message) *transport.Call {
	return e.callAsync(to, req)
}

type windowEndpoint struct{ *endpoint }

func (e windowEndpoint) SetWindow(n int) { e.inner.(transport.WindowSetter).SetWindow(n) }

type asyncWindowEndpoint struct{ *endpoint }

func (e asyncWindowEndpoint) CallAsync(to string, req *wire.Message) *transport.Call {
	return e.callAsync(to, req)
}

func (e asyncWindowEndpoint) SetWindow(n int) { e.inner.(transport.WindowSetter).SetWindow(n) }

func (t *tracer) wrapEndpoint(inner transport.Endpoint, r role) transport.Endpoint {
	e := &endpoint{inner: inner, t: t, role: r}
	_, async := inner.(transport.AsyncCaller)
	_, window := inner.(transport.WindowSetter)
	switch {
	case async && window:
		return asyncWindowEndpoint{e}
	case async:
		return asyncEndpoint{e}
	case window:
		return windowEndpoint{e}
	}
	return e
}

// codec times a primary (view == "") or view codec. keyedCodec adds
// ExtractKeys exactly when the wrapped codec has it: the directory store
// serves delta pulls through image.KeyedExtractor and walks the whole
// component without it.
type codec struct {
	inner image.Codec
	t     *tracer
	view  string
}

func (c *codec) begin(sub uint8, props property.Set, img *image.Image) (ref, int64) {
	if c.view == "" {
		c.t.primCalls[sub].Add(1)
	} else if img != nil {
		c.t.viewEntries.Add(int64(img.Len()))
	}
	if !c.t.on.Load() {
		return ref{}, -1
	}
	start := c.t.now()
	if c.view == "" {
		return c.t.beginPrimCodec(sub, props), start
	}
	return c.t.beginViewCodec(c.view, sub), start
}

func (c *codec) end(sub uint8, r ref, start int64) {
	if start < 0 {
		return
	}
	d := c.t.now() - start
	if c.view == "" {
		c.t.primNs[sub].Add(d)
	} else {
		c.t.viewNs[sub].Add(d)
	}
	c.t.endSpan(r)
}

func (c *codec) Extract(props property.Set) (*image.Image, error) {
	r, start := c.begin(xExtract, props, nil)
	img, err := c.inner.Extract(props)
	c.end(xExtract, r, start)
	return img, err
}

func (c *codec) Merge(img *image.Image, props property.Set) error {
	r, start := c.begin(xMerge, props, img)
	err := c.inner.Merge(img, props)
	c.end(xMerge, r, start)
	return err
}

type keyedCodec struct {
	*codec
	keyed image.KeyedExtractor
}

func (c keyedCodec) ExtractKeys(props property.Set, keys []string) (*image.Image, error) {
	r, start := c.begin(xKeyed, props, nil)
	img, err := c.keyed.ExtractKeys(props, keys)
	c.end(xKeyed, r, start)
	return img, err
}

func (t *tracer) wrapCodec(inner image.Codec, view string) image.Codec {
	c := &codec{inner: inner, t: t, view: view}
	if k, ok := inner.(image.KeyedExtractor); ok {
		return keyedCodec{codec: c, keyed: k}
	}
	return c
}

// session is one travel-agent view and the benchmark's traced calls into
// its cache manager.
type session struct {
	*airline.TravelAgent
	name   string
	group  int
	flight int // first flight of the view's group
	t      *tracer
}

func (s *session) pull() error {
	if !s.t.on.Load() {
		return s.CM.PullImage()
	}
	r := s.t.push(s.name, kCache, cPull)
	err := s.CM.PullImage()
	s.t.pop(s.name, r)
	return err
}

func (s *session) push() error {
	if !s.t.on.Load() {
		return s.CM.PushImage()
	}
	r := s.t.push(s.name, kCache, cPush)
	err := s.CM.PushImage()
	s.t.pop(s.name, r)
	return err
}

func (s *session) setMode(m wire.Mode) error {
	if !s.t.on.Load() {
		return s.CM.SetMode(m)
	}
	r := s.t.push(s.name, kCache, cSetMode)
	err := s.CM.SetMode(m)
	s.t.pop(s.name, r)
	return err
}

func (s *session) startUse() error {
	if !s.t.on.Load() {
		return s.CM.StartUse()
	}
	r := s.t.push(s.name, kCache, cStartUse)
	err := s.CM.StartUse()
	s.t.pop(s.name, r)
	return err
}

func (s *session) endUse() {
	if !s.t.on.Load() {
		s.CM.EndUse()
		return
	}
	r := s.t.push(s.name, kCache, cEndUse)
	s.CM.EndUse()
	s.t.pop(s.name, r)
}

var (
	_ image.KeyedExtractor   = keyedCodec{}
	_ transport.AsyncCaller  = asyncWindowEndpoint{}
	_ transport.WindowSetter = asyncWindowEndpoint{}
)
