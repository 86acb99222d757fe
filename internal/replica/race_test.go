//go:build race

package replica

func init() {
	exploreDepth = 7
	bootstrapRows = 20_000
}
