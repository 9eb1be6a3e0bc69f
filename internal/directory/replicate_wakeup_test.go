package directory

import (
	"net"
	"sync"
	"testing"
	"time"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// reorderNet wraps a network so the attached node's handler delivers one
// pipelined replication window out of order: the first full batch
// (Since 0) is held until a batch with a later Since has been handled.
type reorderNet struct {
	inner transport.Network

	once  sync.Once
	later chan struct{} // closed once a Since>0 batch has been handled
}

func (n *reorderNet) Attach(name string, h transport.Handler) (transport.Endpoint, error) {
	return n.inner.Attach(name, func(req *wire.Message) *wire.Message {
		if req.Type != wire.TReplicate {
			return h(req)
		}
		b, err := DecodeReplBatch(req.Blob)
		if err != nil || b.Snap == nil {
			return h(req)
		}
		if b.Since == 0 {
			select {
			case <-n.later:
			case <-time.After(5 * time.Second):
			}
			return h(req)
		}
		reply := h(req)
		n.once.Do(func() { close(n.later) })
		return reply
	})
}

// hookEndpoint runs hook once, inside the first async call it issues,
// before the request leaves.
type hookEndpoint struct {
	transport.Endpoint
	once sync.Once
	hook func()
}

func (e *hookEndpoint) CallAsync(to string, req *wire.Message) *transport.Call {
	e.once.Do(e.hook)
	return e.Endpoint.(transport.AsyncCaller).CallAsync(to, req)
}

// TestReplicationReorderedWindowNoLostWakeup pins the async sender's
// rewind on a refused batch. Two batches are in flight; the standby
// receives the second before the first, refuses it as a gap, then absorbs
// the first. The refusal must rewind the sender's shipped generation as
// well as its version, or the sender believes the newest state is already
// on the wire and the second commit's barrier waits for an unrelated
// mutation or a heartbeat. Neither comes here: the barrier has to release
// on its own, well inside the ack timeout.
func TestReplicationReorderedWindowNoLostWakeup(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clock := vclock.NewSim()
	sb, err := New("dm!b", newHammerKV(), clock, &reorderNet{
		inner: transport.NewServerNetwork(ln, 5*time.Second),
		later: make(chan struct{}),
	}, Options{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	prim, err := New("dm!a", newHammerKV(), clock, transport.NewInproc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	client, err := transport.Dial(ln.Addr().String(), "dm!a", func(*wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TAck}
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	commit := func(k string) error {
		d := image.New(property.MustSet("P={x}"))
		d.Put(image.Entry{Key: k, Value: []byte(k)})
		_, err := prim.CommitLocal(d, 1)
		return err
	}
	// While the first batch is being issued, a second commit lands, so the
	// sender ships a second batch before the first is acked.
	second := make(chan error, 1)
	ep := &hookEndpoint{Endpoint: client, hook: func() {
		g := prim.haGen()
		go func() { second <- commit("k2") }()
		for prim.haGen() == g {
			time.Sleep(time.Millisecond)
		}
	}}
	repl, err := prim.StartReplication(ReplConfig{Window: 4, AckTimeout: 30 * time.Second},
		ReplTarget{Name: "dm!b", Ep: ep})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()

	if err := commit("k1"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("second commit's replication barrier never released after the reordered window")
	}
	if got, want := sb.CurrentVersion(), prim.CurrentVersion(); got != want {
		t.Fatalf("standby at v%d, primary at v%d", got, want)
	}
}
