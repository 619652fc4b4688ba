package pgas

// Front stands for the real Front, whose relaxed ops are built on
// LocalWords: inside package pgas the call is legal.
type Front struct{ k Proc }

func (f *Front) RelaxedLoad64(seg Seg, idx int) int64 { return f.k.LocalWords(seg)[idx] }
