package enclave

import (
	"strings"
	"sync"

	"repro/internal/secmem"
)

// Vault stores a component's secret key material. Two implementations
// model the paper's two deployment modes: a HostVault keeps secrets in
// ordinary (MIP-readable) memory, an EnclaveVault keeps them in enclave
// memory. DumpHostMemory simulates the adversary capability from the
// threat model (§3.1): "On the middlebox infrastructure, the adversary
// has complete access to all hardware (e.g., it can read and manipulate
// memory)."
type Vault interface {
	// StoreSecrets records a batch of named secrets, cloning each value,
	// in one visit to the vault's protection domain: a key install is
	// one enclave crossing however many keys it carries.
	StoreSecrets(secrets ...Secret)
	// UseSecret invokes f with the named secret in its protection
	// domain (inside the enclave for an EnclaveVault). f must not leak
	// the slice.
	UseSecret(name string, f func(secret []byte))
	// DumpHostMemory returns every byte of this component's secrets
	// that is resident in host-visible memory.
	DumpHostMemory() map[string][]byte
	// Wipe zeroizes and discards every stored secret. Owners wipe the
	// vault when the component (or test scenario) it serves is torn
	// down.
	Wipe()
	// WipePrefix zeroizes and discards the secrets whose names start
	// with prefix. Session hosts use it to retire one session's
	// namespaced secrets ("session/<id>/...") from a vault shared by
	// many concurrent sessions.
	WipePrefix(prefix string)
}

// Secret is one named entry of a StoreSecrets batch.
type Secret struct {
	Name  string
	Value []byte
}

// HostVault stores secrets in host memory — the non-SGX deployment.
type HostVault struct {
	mu      sync.Mutex
	secrets map[string][]byte
}

// NewHostVault returns an empty host-memory vault.
func NewHostVault() *HostVault {
	return &HostVault{secrets: make(map[string][]byte)}
}

// StoreSecrets implements Vault.
func (v *HostVault) StoreSecrets(secrets ...Secret) {
	v.mu.Lock()
	for _, s := range secrets {
		v.secrets[s.Name] = append([]byte(nil), s.Value...)
	}
	v.mu.Unlock()
}

// UseSecret implements Vault.
func (v *HostVault) UseSecret(name string, f func([]byte)) {
	v.mu.Lock()
	s := v.secrets[name]
	v.mu.Unlock()
	f(s)
}

// DumpHostMemory implements Vault: everything is host-visible.
func (v *HostVault) DumpHostMemory() map[string][]byte {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string][]byte, len(v.secrets))
	for k, s := range v.secrets {
		out[k] = append([]byte(nil), s...)
	}
	return out
}

// Wipe implements Vault: every entry is zeroized before the map is
// dropped, so the key bytes do not linger in freed host memory.
func (v *HostVault) Wipe() {
	v.mu.Lock()
	for _, s := range v.secrets {
		secmem.Wipe(s)
	}
	v.secrets = make(map[string][]byte)
	v.mu.Unlock()
}

// WipePrefix implements Vault.
func (v *HostVault) WipePrefix(prefix string) {
	v.mu.Lock()
	for name, s := range v.secrets {
		if strings.HasPrefix(name, prefix) {
			secmem.Wipe(s)
			delete(v.secrets, name)
		}
	}
	v.mu.Unlock()
}

// EnclaveVault stores secrets in enclave memory; the host retains only
// the enclave handle and the secret names (names are not secret — they
// are the vault's addressing scheme, needed to enumerate entries for
// Wipe because enclave memory is not iterable from the host).
type EnclaveVault struct {
	enclave *Enclave

	mu    sync.Mutex
	names map[string]bool
}

// NewEnclaveVault returns a vault backed by the given enclave.
func NewEnclaveVault(e *Enclave) *EnclaveVault {
	return &EnclaveVault{enclave: e, names: make(map[string]bool)}
}

// StoreSecrets implements Vault, paying one enclave entry for the
// whole batch.
func (v *EnclaveVault) StoreSecrets(secrets ...Secret) {
	v.mu.Lock()
	for _, s := range secrets {
		v.names[s.Name] = true
	}
	v.mu.Unlock()
	v.enclave.Enter(func(mem Memory) {
		for _, s := range secrets {
			mem.Put("secret:"+s.Name, append([]byte(nil), s.Value...))
		}
	})
}

// UseSecret implements Vault; f runs inside the enclave.
func (v *EnclaveVault) UseSecret(name string, f func([]byte)) {
	v.enclave.Enter(func(mem Memory) {
		s, _ := mem.Get("secret:" + name).([]byte)
		f(s)
	})
}

// DumpHostMemory implements Vault: enclave memory is encrypted and
// integrity-protected by the CPU, so the host dump contains nothing.
func (v *EnclaveVault) DumpHostMemory() map[string][]byte {
	return map[string][]byte{}
}

// Wipe implements Vault: one enclave transition zeroizes and deletes
// every stored secret.
func (v *EnclaveVault) Wipe() {
	v.mu.Lock()
	names := v.names
	v.names = make(map[string]bool)
	v.mu.Unlock()
	if len(names) == 0 {
		return
	}
	v.enclave.Enter(func(mem Memory) {
		for name := range names {
			if s, ok := mem.Get("secret:" + name).([]byte); ok {
				secmem.Wipe(s)
			}
			mem.Delete("secret:" + name)
		}
	})
}

// WipePrefix implements Vault: the host-side name index selects the
// entries, one enclave transition retires them.
func (v *EnclaveVault) WipePrefix(prefix string) {
	var names []string
	v.mu.Lock()
	for name := range v.names {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
			delete(v.names, name)
		}
	}
	v.mu.Unlock()
	if len(names) == 0 {
		return
	}
	v.enclave.Enter(func(mem Memory) {
		for _, name := range names {
			if s, ok := mem.Get("secret:" + name).([]byte); ok {
				secmem.Wipe(s)
			}
			mem.Delete("secret:" + name)
		}
	})
}
