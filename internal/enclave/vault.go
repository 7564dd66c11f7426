package enclave

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/secmem"
)

// Vault stores a component's secret key material. Two implementations
// model the paper's two deployment modes: a HostVault keeps secrets in
// ordinary (MIP-readable) memory, an EnclaveVault keeps them in enclave
// memory. DumpHostMemory simulates the adversary capability from the
// threat model (§3.1): "On the middlebox infrastructure, the adversary
// has complete access to all hardware (e.g., it can read and manipulate
// memory)."
//
// Secrets live in numbered namespaces — a middlebox files each session's
// under the session's ID — so concurrent sessions sharing one enclave
// keep per-session key isolation, and one session's secrets retire
// together. A namespace costs no string per secret: names are the
// callers' constants.
type Vault interface {
	// StoreSecrets records a batch of named secrets in namespace ns,
	// cloning each value, in one visit to the vault's protection domain:
	// a key install is one enclave crossing however many keys it
	// carries. A name already stored in ns is replaced.
	StoreSecrets(ns uint64, secrets ...Secret)
	// UseSecret invokes f with the named secret of namespace ns (nil if
	// absent) in its protection domain (inside the enclave for an
	// EnclaveVault). f must not leak the slice.
	UseSecret(ns uint64, name string, f func(secret []byte))
	// DumpHostMemory returns every byte of this component's secrets
	// that is resident in host-visible memory, keyed
	// "session/<namespace>/<name>".
	DumpHostMemory() map[string][]byte
	// Wipe zeroizes and discards every stored secret. Owners wipe the
	// vault when the component (or test scenario) it serves is torn
	// down.
	Wipe()
	// WipeNamespace zeroizes and discards the secrets of namespace ns.
	// Session hosts use it to retire one session's secrets from a vault
	// shared by many concurrent sessions.
	WipeNamespace(ns uint64)
}

// Secret is one named entry of a StoreSecrets batch.
type Secret struct {
	Name  string
	Value []byte
}

// namespaces is the secret store both vaults keep — a HostVault in host
// memory, an EnclaveVault inside the enclave.
type namespaces struct {
	mu     sync.Mutex
	spaces map[uint64][]Secret
}

// put files clones of secrets in namespace ns, the batch's values in
// one allocation.
func (n *namespaces) put(ns uint64, secrets []Secret) {
	size := 0
	for _, s := range secrets {
		size += len(s.Value)
	}
	clones := make([]byte, 0, size)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.spaces == nil {
		n.spaces = make(map[uint64][]Secret)
	}
	list := slices.Grow(n.spaces[ns], len(secrets))
	for _, s := range secrets {
		clones = append(clones, s.Value...)
		v := clones[len(clones)-len(s.Value) : len(clones) : len(clones)]
		if i := slices.IndexFunc(list, func(e Secret) bool { return e.Name == s.Name }); i >= 0 {
			secmem.Wipe(list[i].Value)
			list[i].Value = v
		} else {
			list = append(list, Secret{Name: s.Name, Value: v})
		}
	}
	n.spaces[ns] = list
}

// get returns the stored value itself, or nil.
func (n *namespaces) get(ns uint64, name string) []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, e := range n.spaces[ns] {
		if e.Name == name {
			return e.Value
		}
	}
	return nil
}

// wipe zeroizes and drops namespace ns.
func (n *namespaces) wipe(ns uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, e := range n.spaces[ns] {
		secmem.Wipe(e.Value)
	}
	delete(n.spaces, ns)
}

// wipeAll zeroizes and drops every namespace.
func (n *namespaces) wipeAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, list := range n.spaces {
		for _, e := range list {
			secmem.Wipe(e.Value)
		}
	}
	n.spaces = nil
}

// dump copies every secret out, keyed "session/<namespace>/<name>".
func (n *namespaces) dump() map[string][]byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string][]byte)
	for ns, list := range n.spaces {
		for _, e := range list {
			out[fmt.Sprintf("session/%d/%s", ns, e.Name)] = append([]byte(nil), e.Value...)
		}
	}
	return out
}

// HostVault stores secrets in host memory — the non-SGX deployment.
type HostVault struct {
	secrets namespaces
}

// NewHostVault returns an empty host-memory vault.
func NewHostVault() *HostVault { return &HostVault{} }

// StoreSecrets implements Vault.
func (v *HostVault) StoreSecrets(ns uint64, secrets ...Secret) { v.secrets.put(ns, secrets) }

// UseSecret implements Vault.
func (v *HostVault) UseSecret(ns uint64, name string, f func([]byte)) { f(v.secrets.get(ns, name)) }

// DumpHostMemory implements Vault: everything is host-visible.
func (v *HostVault) DumpHostMemory() map[string][]byte { return v.secrets.dump() }

// Wipe implements Vault: every entry is zeroized before it is dropped,
// so the key bytes do not linger in freed host memory.
func (v *HostVault) Wipe() { v.secrets.wipeAll() }

// WipeNamespace implements Vault.
func (v *HostVault) WipeNamespace(ns uint64) { v.secrets.wipe(ns) }

// EnclaveVault stores secrets in enclave memory; the host retains only
// the enclave handle and the numbers of the namespaces in use (they are
// not secret — they are the vault's addressing scheme, needed to skip
// an enclave crossing when a namespace holds nothing).
type EnclaveVault struct {
	enclave *Enclave
	// key names the vault's store in enclave memory; built once.
	key string

	mu    sync.Mutex
	inUse map[uint64]bool
}

// enclaveVaults numbers EnclaveVaults, so vaults sharing one enclave
// keep separate stores.
var enclaveVaults atomic.Uint64

// NewEnclaveVault returns a vault backed by the given enclave.
func NewEnclaveVault(e *Enclave) *EnclaveVault {
	return &EnclaveVault{
		enclave: e,
		key:     fmt.Sprintf("vault/%d", enclaveVaults.Add(1)),
		inUse:   make(map[uint64]bool),
	}
}

// store returns the vault's namespaces in enclave memory; call it only
// inside Enter.
func (v *EnclaveVault) store(mem Memory) *namespaces {
	v.mu.Lock()
	defer v.mu.Unlock()
	n, ok := mem.Get(v.key).(*namespaces)
	if !ok {
		n = &namespaces{}
		mem.Put(v.key, n)
	}
	return n
}

// StoreSecrets implements Vault, paying one enclave entry for the
// whole batch.
func (v *EnclaveVault) StoreSecrets(ns uint64, secrets ...Secret) {
	v.mu.Lock()
	v.inUse[ns] = true
	v.mu.Unlock()
	v.enclave.Enter(func(mem Memory) { v.store(mem).put(ns, secrets) })
}

// UseSecret implements Vault; f runs inside the enclave.
func (v *EnclaveVault) UseSecret(ns uint64, name string, f func([]byte)) {
	v.enclave.Enter(func(mem Memory) { f(v.store(mem).get(ns, name)) })
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
	used := len(v.inUse) > 0
	v.inUse = make(map[uint64]bool)
	v.mu.Unlock()
	if used {
		v.enclave.Enter(func(mem Memory) { v.store(mem).wipeAll() })
	}
}

// WipeNamespace implements Vault: the host-side index says whether the
// namespace holds anything, one enclave transition retires it.
func (v *EnclaveVault) WipeNamespace(ns uint64) {
	v.mu.Lock()
	used := v.inUse[ns]
	delete(v.inUse, ns)
	v.mu.Unlock()
	if used {
		v.enclave.Enter(func(mem Memory) { v.store(mem).wipe(ns) })
	}
}
