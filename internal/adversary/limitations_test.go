package adversary

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/tls12"
)

// TestStatePoisoningLimitation demonstrates §4.2 "Middlebox State
// Poisoning": because a client knows every hop key on its side of the
// session (it generated them, and it ran the primary handshake for the
// bridge), it can forge a "server response" that its own middlebox
// accepts as authentic. The paper concludes "it is not safe to use
// mbTLS with client-side middleboxes that keep global state" (e.g., a
// shared web cache) — this test verifies the limitation is real in
// this implementation, exactly as documented.
func TestStatePoisoningLimitation(t *testing.T) {
	sc, err := NewScenario(Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	// Normal exchange first: server sends a real response, advancing
	// the bridge's server→client sequence number.
	if _, err := sc.Client.Write([]byte("GET /page")); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ServerRecv(attackTimeout); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Server.Write([]byte("REAL RESPONSE")); err != nil {
		t.Fatal(err)
	}
	if got, err := sc.ClientRecv(attackTimeout); err != nil || string(got) != "REAL RESPONSE" {
		t.Fatalf("real response not delivered: %q %v", got, err)
	}

	// The malicious client forges the *next* server response under the
	// bridge key it legitimately holds, and splices it onto the link
	// between its middlebox and the server.
	keys, err := sc.Client.ExportPrimaryKeys()
	if err != nil {
		t.Fatal(err)
	}
	// Bridge s2c sequence: 1 (server Finished) + 1 (real response).
	forgeCS, err := tls12.NewCipherState(keys.Suite, keys.ServerWriteKey, keys.ServerWriteIV, 2)
	if err != nil {
		t.Fatal(err)
	}
	forged := tls12.RawRecord{
		Type:    tls12.TypeApplicationData,
		Payload: forgeCS.Seal(tls12.TypeApplicationData, []byte("POISONED CONTENT")),
	}
	if err := sc.T2.InjectS2C(forged); err != nil {
		t.Fatal(err)
	}

	// The middlebox opens the forged record with the bridge key,
	// accepts it as server data, and reseals it toward the client: a
	// caching middlebox would have stored it for other clients.
	got, err := sc.ClientRecv(attackTimeout)
	if err != nil {
		t.Fatalf("middlebox rejected the forgery — the documented limitation no longer holds "+
			"(did key distribution change?): %v", err)
	}
	if !bytes.Equal(got, []byte("POISONED CONTENT")) {
		t.Fatalf("unexpected data: %q", got)
	}
	t.Log("confirmed: a client can forge server responses through its own middleboxes (§4.2); " +
		"stateful shared middleboxes must not trust client-side mbTLS sessions")
}

// TestStatePoisoningDefeatedByNeighborKeys: under the §4.2
// neighbor-keys mode, the client no longer knows the
// middlebox↔server hop key, so the same forgery is rejected by the
// middlebox with a MAC failure.
func TestStatePoisoningDefeatedByNeighborKeys(t *testing.T) {
	sc, err := NewScenario(Opts{NeighborKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	if _, err := sc.Client.Write([]byte("GET /page")); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ServerRecv(attackTimeout); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Server.Write([]byte("REAL RESPONSE")); err != nil {
		t.Fatal(err)
	}
	if got, err := sc.ClientRecv(attackTimeout); err != nil || string(got) != "REAL RESPONSE" {
		t.Fatalf("real response not delivered: %q %v", got, err)
	}

	// Same forgery as TestStatePoisoningLimitation: a record sealed
	// under the primary session keys the client holds.
	keys, err := sc.Client.ExportPrimaryKeys()
	if err != nil {
		t.Fatal(err)
	}
	forgeCS, err := tls12.NewCipherState(keys.Suite, keys.ServerWriteKey, keys.ServerWriteIV, 2)
	if err != nil {
		t.Fatal(err)
	}
	forged := tls12.RawRecord{
		Type:    tls12.TypeApplicationData,
		Payload: forgeCS.Seal(tls12.TypeApplicationData, []byte("POISONED CONTENT")),
	}
	if err := sc.T2.InjectS2C(forged); err != nil {
		t.Fatal(err)
	}

	// The middlebox's upstream hop key was negotiated with the server;
	// the forgery must fail its MAC check and kill the session rather
	// than poison any middlebox state.
	got, err := sc.ClientRecv(attackTimeout)
	if err == nil {
		t.Fatalf("forgery delivered under neighbor keys: %q", got)
	}
	if err == ErrTimeout {
		t.Fatal("forgery silently dropped; expected a hard failure")
	}
	t.Logf("forgery rejected as expected: %v", err)
}

// TestEndpointIsolation verifies §4.2 "Endpoint Isolation": endpoints
// cannot see (or authenticate) the other side's middleboxes. The
// summaries exposed to each endpoint cover only its own side.
func TestEndpointIsolation(t *testing.T) {
	sc, err := NewScenario(Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	// The scenario's middlebox is client-side.
	if n := len(sc.Client.Middleboxes()); n != 1 {
		t.Fatalf("client sees %d middleboxes, want its own 1", n)
	}
	if n := len(sc.Server.Middleboxes()); n != 0 {
		t.Fatalf("server sees %d middleboxes, want 0 (endpoint isolation)", n)
	}
}

// TestFilterBypassArgument encodes the paper's §4.2 observation about
// "Bypassing 'Filter' Middleboxes": an endpoint that can physically
// inject traffic beyond the filter could always bypass it; within the
// protocol, a third party (who lacks the keys) cannot. A TP injecting
// a record on the far side of the middlebox is rejected.
func TestFilterBypassArgument(t *testing.T) {
	sc, err := NewScenario(Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	// A third party (no keys) forging on the bridge link fails.
	junk := tls12.RawRecord{Type: tls12.TypeApplicationData, Payload: bytes.Repeat([]byte{9}, 48)}
	if err := sc.T2.InjectC2S(junk); err != nil {
		t.Fatal(err)
	}
	err = sc.ServerReadErr(attackTimeout)
	if err == nil || err == ErrTimeout {
		t.Fatal("third-party injection beyond the filter was accepted")
	}
}

// ClientRecv waits for the next chunk the client accepted.
func (sc *Scenario) ClientRecv(timeout time.Duration) ([]byte, error) {
	select {
	case b := <-sc.clientRecv:
		return b, nil
	case err := <-sc.clientErr:
		return nil, err
	case <-time.After(timeout):
		return nil, ErrTimeout
	}
}

// InjectS2C writes an attacker-crafted record toward the client side.
func (tp *TamperPoint) InjectS2C(rec tls12.RawRecord) error {
	_, err := tp.a.Write(rec.Marshal())
	return err
}
