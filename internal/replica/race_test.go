//go:build race

package replica

func init() { exploreDepth = 7 }
