package client

// EncodeBufCaps returns the capacity of each connection's frame encoder
// buffer, primary connections first.
func EncodeBufCaps(c *Client) []int {
	var caps []int
	for _, pool := range [][]*netConn{c.conns, c.followers} {
		for _, cn := range pool {
			cn.wmu.Lock()
			caps = append(caps, cap(cn.wbuf))
			cn.wmu.Unlock()
		}
	}
	return caps
}
