package edge

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"testing"
	"time"

	"emap/internal/proto"
)

// TestInteropTrueV1Server pairs the client against a hand-rolled
// v1-era server that answers Hello with a version-1 TypeError frame (it
// predates the Hello exchange entirely). There is no fallback: the
// client refuses the peer at connect with ErrBadVersion, and no request
// is ever written to it.
func TestInteropTrueV1Server(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		if _, err := proto.ReadFrameAny(sConn); err != nil {
			t.Errorf("server: %v", err)
			return
		}
		payload := proto.EncodeError(&proto.ErrorMsg{Code: 400, Text: "unexpected message type 6"})
		frame := binary.LittleEndian.AppendUint16(nil, proto.Magic)
		frame = append(frame, 1, byte(proto.TypeError))
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
		frame = append(frame, payload...)
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
		if _, err := sConn.Write(frame); err != nil {
			t.Errorf("server: %v", err)
			return
		}
		if f, err := proto.ReadFrameAny(sConn); err == nil {
			t.Errorf("server: the refused client sent a type-%d frame", f.Type)
		}
	}()
	client, err := NewClientOpts(cConn, ClientOptions{Tenant: "ward-7"})
	if !errors.Is(err, proto.ErrBadVersion) {
		t.Fatalf("connect to a v1 server: client %v, error %v; want ErrBadVersion", client, err)
	}
	<-served
}

// TestIngestAgainstOldServer: a server that predates the ingest message
// answers TypeIngest with an error frame. The client's Ingest must
// surface that as a *CloudError carrying the server's code — never hang,
// never report an ack.
func TestIngestAgainstOldServer(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	go func() {
		answerHello(t, sConn)
		f, err := proto.ReadFrameAny(sConn)
		if err != nil || f.Type != proto.TypeIngest {
			t.Errorf("server: expected an ingest, got %+v, %v", f, err)
			return
		}
		payload := proto.EncodeError(&proto.ErrorMsg{Code: 400, Text: "unexpected message type 7"})
		if err := proto.NewFrameWriter(sConn).WriteFrame(proto.TypeError, f.ID, f.Tenant, payload); err != nil {
			t.Errorf("server: %v", err)
		}
	}()
	client, err := NewClientOpts(cConn, ClientOptions{Tenant: "ward-7"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ack, err := client.Ingest(ctx, &proto.Ingest{
		RecordID: "r1", Onset: -1, Scale: 1, Samples: make([]int16, 2048)})
	if !IsCloudCode(err, 400) {
		t.Fatalf("ingest against an old server: ack %+v, error %v; want cloud error 400", ack, err)
	}
}
