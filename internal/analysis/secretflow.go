package analysis

// SecretFlow is the interprocedural secret-taint analyzer: it follows
// key material from its sources through assignments, derivations, and
// calls (using the engine's per-function summaries) and reports when a
// secret reaches a leak sink. Paulson's inductive analysis of TLS
// (arXiv 1907.07559) is the model: secrecy is a *flow* property — no
// single call site is wrong, the path is.
//
// Sources: reads of key-material fields (master/pre-master secrets,
// STEK and ticket keys, KeyMaterial/SessionKeys structs),
// ExportSessionKeys/ExportPrimaryKeys results, and the memory-handle
// parameters of Enclave.Enter callbacks.
//
// Sinks: fmt/log formatting and errors.New/fmt.Errorf (a secret in an
// error string ends up in operator logs), plaintext writes to
// connection-shaped values (the wire before any sealing), assignments
// to package-level variables (host-visible memory that outlives the
// enclave callback), and any module function whose summary says a
// parameter reaches one of those.
//
// Sanitizers: AEAD seals and asymmetric encryption (wire-safe output),
// digests (a hash of a key is an identifier), constant-time compares
// (public verdict), and wipes.
var SecretFlow = &Analyzer{
	Name:        "secretflow",
	Doc:         "key material must not flow into logs, error strings, plaintext writes, or host-visible globals",
	NeedsEngine: true,
	Run:         runSecretFlow,
}

func runSecretFlow(pass *Pass) {
	seen := make(map[string]bool)
	for _, f := range pass.Engine.secretFindings {
		if f.pkg != pass.Pkg {
			continue
		}
		key := pass.Pkg.Fset.Position(f.pos).String() + "\x00" + f.msg
		if seen[key] {
			continue
		}
		seen[key] = true
		pass.ReportViaf(f.pos, f.via, "%s", f.msg)
	}
}
