package transport

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
)

// TestWorkerRejectsBadIndices sends a worker one frame of each type
// that carries a bucket or worker index, with the index out of range
// for the handshaken topology (8 buckets, 2 workers). The worker must
// return ErrBadPayload — not index its memories or its per-destination
// buffers with the wire's number and panic.
func TestWorkerRejectsBadIndices(t *testing.T) {
	const (
		nbuckets  = 8
		workers   = 2
		badBucket = 1 << 20
	)
	network, _ := compileWorkload(t, "blocks")
	act := rightAct(network)
	part := sched.RoundRobin(nbuckets, workers)

	rows := []struct {
		name    string
		ft      frameType
		payload func(e *enc)
	}{
		{"acts-bucket", ftActs, func(e *enc) {
			e.i32(1) // batch
			e.i32(workers)
			e.actList([]parallel.Message{{Bucket: badBucket, Depth: 1, Act: act}})
		}},
		{"repart-bucket", ftRepart, func(e *enc) {
			e.partition(part)
			e.moves([]parallel.BucketMove{{Bucket: badBucket, NewOwner: 1}})
		}},
		{"repart-destination", ftRepart, func(e *enc) {
			e.partition(part)
			e.moves([]parallel.BucketMove{{Bucket: 3, NewOwner: workers + 5}})
		}},
		{"repart-partition-owner", ftRepart, func(e *enc) {
			bad := append(sched.Partition(nil), part...)
			bad[2] = workers
			e.partition(bad)
			e.moves(nil)
		}},
		{"bucket", ftBucket, func(e *enc) {
			e.bucketContents(&rete.BucketContents{
				Bucket:     badBucket,
				RightNodes: []*rete.Node{act.Node},
				RightWMEs:  []*ops5.WME{act.WME},
			})
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ctl, wrk := net.Pipe()
			defer ctl.Close()
			served := make(chan error, 1)
			go func() { served <- ServeConn(wrk) }()

			hb, err := encodeHello(nil, hello{workers: workers, nbuckets: nbuckets, partition: part}, network)
			if err != nil {
				t.Fatal(err)
			}
			if err := writeFrame(ctl, ftHello, hb); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(ctl)
			if ft, _, err := readFrame(br, nil); err != nil || ft != ftReady {
				t.Fatalf("handshake: ft=%v err=%v", ft, err)
			}
			var e enc
			row.payload(&e)
			if err := writeFrame(ctl, row.ft, e.buf); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-served:
				if !errors.Is(err, ErrBadPayload) {
					t.Fatalf("worker returned %v, want ErrBadPayload", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("worker accepted the frame")
			}
		})
	}
}

// TestLoopbackRejectsBadIndices is the same fault on the Loopback
// carrier's one frame type: an ftBatch whose activation names a bucket
// outside the space the endpoints were opened for must reach the
// runtime as an ErrBadPayload transport failure, not as a message.
func TestLoopbackRejectsBadIndices(t *testing.T) {
	network, _ := compileWorkload(t, "blocks")
	failed := make(chan error, 1)
	lb := NewLoopback(network)
	eps, err := lb.Open(2, parallel.EndpointOptions{
		NBuckets: 8,
		OnError: func(err error) {
			select {
			case failed <- err:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	eps[0].Push(parallel.Message{Kind: parallel.MsgAct, Bucket: 1 << 20, Depth: 1, Act: rightAct(network)}, 1, 1)
	select {
	case err := <-failed:
		if !errors.Is(err, ErrBadPayload) {
			t.Fatalf("transport failed with %v, want ErrBadPayload", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("loopback delivered an activation for bucket 1<<20 of 8")
	}
}
