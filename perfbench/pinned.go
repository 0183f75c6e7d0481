package main

// pinnedDigests are the Report digests (see Digest) of each simulator
// workload at DefaultSeed. An op whose digest differs counts as failed.
// The csi4-parbs line is the paper's Case Study I under PAR-BS
// (unfairness 1.21, weighted speedup 1.667, bus utilization 74%).
var pinnedDigests = map[string]string{
	"csi4-parbs": "PAR-BS unf=1.208610968456736 ws=1.6665587483281676 hs=0.41470985786877534 bus=0.74 " +
		"sd=libquantum:2.6303689731575326,mcf:2.2077922297793875,GemsFDTD:2.6683619049849225,xalancbmk:2.616948232471963",
	"light4-parbs": "PAR-BS unf=1.2543241343855573 ws=3.907052096388164 hs=0.9765886389933691 bus=0.265 " +
		"sd=povray:1.3524004793796625,gcc:1.206671740071558,namd:1.1706410264193499,h264ref:1.0781905906977933",
	"ind16-parbs": "PAR-BS x4-independent unf=1.6014145433823368 ws=7.552798516310941 hs=0.3919204390269515 bus=0.691905 " +
		"sd=hmmer:3.453455507796758,bzip2:4.040203999816301,gobmk:4.105308159590824,povray:2.5694881956172533," +
		"cactusADM:3.639519166462281,mcf:3.506568677887328,libquantum:3.1053933490290055,leslie3d:3.6870540933234617," +
		"astar:3.99458000520673,omnetpp:3.7210147365590087,wrf:4.114815765510708,tonto:3.9474282385156134," +
		"cactusADM:3.701958569255654,xalancbmk:3.8788920200448267,matlab:3.0291181310669204,lbm:3.541403149160688",
}
