package server

import "time"

// SetWriteTimeout replaces DefaultWriteTimeout on s; call it before Start.
func SetWriteTimeout(s *Server, d time.Duration) { s.opts.writeTimeout = d }
