package experiments

import "testing"

// TestSoakSmoke holds a small registry of idle sessions and checks the
// envelope numbers come back sane and nothing leaks.
func TestSoakSmoke(t *testing.T) {
	row, err := RunSoak(SoakOptions{Sessions: 500})
	if err != nil {
		t.Fatal(err)
	}
	if row.Sessions != 500 {
		t.Fatalf("row = %+v, want 500 sessions", row)
	}
	if row.AdmitP99Us <= 0 || row.DrainMs < 0 {
		t.Errorf("soak envelope malformed: %+v", row)
	}
	if row.ForceClosed != 0 {
		t.Errorf("idle drain force-closed %d sessions, want 0", row.ForceClosed)
	}
}
