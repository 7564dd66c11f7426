package core

import (
	"io"
	"net"

	"repro/internal/enclave"
)

// splice relays the two sides at byte level, without interpreting
// records, once join has forwarded the bytes it read from the client
// (non-TLS traffic, legacy clients, or servers on the announcement
// negative-cache).
func (s *mbSession) splice() error {
	errc := make(chan error, 2)
	go func() { errc <- s.spliceOneWay(s.up, s.downR) }()
	go func() { errc <- s.spliceOneWay(s.down, s.up) }()
	err := <-errc
	s.closeAll()
	<-errc
	if err == io.EOF {
		return nil
	}
	return err
}

// spliceOneWay copies bytes src→dst. When the middlebox application
// lives in an enclave, every chunk still traverses it — the paper's
// forwarding-only enclave configuration (Figure 7, "No Encryption +
// Enclave"): the application receives and sends from inside the
// enclave even when it performs no cryptography.
func (s *mbSession) spliceOneWay(dst net.Conn, src io.Reader) error {
	buf := make([]byte, 32<<10)
	var inEnclave []byte
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if e := s.mb.cfg.Enclave; e != nil {
				e.Enter(func(enclave.Memory) {
					inEnclave = append(inEnclave[:0], chunk...)
				})
				chunk = inEnclave
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return werr
			}
		}
		if err != nil {
			return err
		}
	}
}
