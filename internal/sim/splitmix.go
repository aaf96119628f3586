package sim

// SplitMixGamma is splitmix64's increment, the 64-bit golden ratio.
const SplitMixGamma = 0x9e3779b97f4a7c15

// SplitMix64 is one splitmix64 round: z advanced by SplitMixGamma, then
// finalised. It is the simulator's one stateless mixer: derived seeds,
// fault parameters, ordering samples and route hashes all come from it.
func SplitMix64(z uint64) uint64 {
	z += SplitMixGamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
