package tls12

import "fmt"

// AlertLevel is the severity of a TLS alert.
type AlertLevel uint8

// Alert severities.
const (
	AlertLevelWarning AlertLevel = 1
	AlertLevelFatal   AlertLevel = 2
)

// AlertDescription identifies a TLS alert.
type AlertDescription uint8

// Alert descriptions used by this implementation (RFC 5246 §7.2).
const (
	AlertCloseNotify          AlertDescription = 0
	AlertUnexpectedMessage    AlertDescription = 10
	AlertBadRecordMAC         AlertDescription = 20
	AlertRecordOverflow       AlertDescription = 22
	AlertHandshakeFailure     AlertDescription = 40
	AlertBadCertificate       AlertDescription = 42
	AlertCertificateExpired   AlertDescription = 45
	AlertCertificateUnknown   AlertDescription = 46
	AlertIllegalParameter     AlertDescription = 47
	AlertUnknownCA            AlertDescription = 48
	AlertAccessDenied         AlertDescription = 49
	AlertDecodeError          AlertDescription = 50
	AlertDecryptError         AlertDescription = 51
	AlertProtocolVersion      AlertDescription = 70
	AlertInsufficientSecurity AlertDescription = 71
	AlertInternalError        AlertDescription = 80
	AlertUnsupportedExtension AlertDescription = 110
	// AlertAttestationFailure is an mbTLS-specific alert raised when a
	// required SGX attestation is missing or fails verification.
	AlertAttestationFailure AlertDescription = 113
	// AlertOverloaded is an mbTLS-specific alert a session host sends
	// before closing a connection it refuses because it is at its
	// max-concurrent-sessions cap.
	AlertOverloaded AlertDescription = 114
	// AlertDraining is an mbTLS-specific alert a session host sends
	// before closing a connection it refuses because it is draining
	// toward shutdown.
	AlertDraining AlertDescription = 115
	// AlertAccountabilityMismatch is an mbTLS-specific alert a
	// middlebox sends on its secondary subchannel when the
	// accountability mode the endpoint negotiated (MiddleboxSupport
	// flags octet) differs from the mode the middlebox is configured
	// to run.
	AlertAccountabilityMismatch AlertDescription = 116
)

func (d AlertDescription) String() string {
	switch d {
	case AlertCloseNotify:
		return "close_notify"
	case AlertUnexpectedMessage:
		return "unexpected_message"
	case AlertBadRecordMAC:
		return "bad_record_mac"
	case AlertRecordOverflow:
		return "record_overflow"
	case AlertHandshakeFailure:
		return "handshake_failure"
	case AlertBadCertificate:
		return "bad_certificate"
	case AlertCertificateExpired:
		return "certificate_expired"
	case AlertCertificateUnknown:
		return "certificate_unknown"
	case AlertIllegalParameter:
		return "illegal_parameter"
	case AlertUnknownCA:
		return "unknown_ca"
	case AlertAccessDenied:
		return "access_denied"
	case AlertDecodeError:
		return "decode_error"
	case AlertDecryptError:
		return "decrypt_error"
	case AlertProtocolVersion:
		return "protocol_version"
	case AlertInsufficientSecurity:
		return "insufficient_security"
	case AlertInternalError:
		return "internal_error"
	case AlertUnsupportedExtension:
		return "unsupported_extension"
	case AlertAttestationFailure:
		return "attestation_failure"
	case AlertOverloaded:
		return "overloaded"
	case AlertDraining:
		return "draining"
	case AlertAccountabilityMismatch:
		return "accountability_mismatch"
	}
	return fmt.Sprintf("alert(%d)", uint8(d))
}

// AlertError is returned when a connection fails due to a TLS alert,
// either received from the peer or generated locally before being sent.
type AlertError struct {
	// Description identifies the alert.
	Description AlertDescription
	// Remote is true if the alert was received from the peer rather
	// than generated locally.
	Remote bool
}

// Error implements the error interface.
func (e *AlertError) Error() string {
	side := "local"
	if e.Remote {
		side = "remote"
	}
	return fmt.Sprintf("tls12: %s alert: %s", side, e.Description)
}
