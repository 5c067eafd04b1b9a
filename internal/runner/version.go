package runner

import (
	"fmt"

	"protozoa/internal/resultcache"
)

// VersionString renders the build provenance `protozoa version`
// prints: the result cache's schema version and code stamp (main
// module version plus VCS revision/dirty bit when the binary carries
// them). Two binaries printing the same string derive the same cache
// keys, so this is how cached-result provenance is checked from the
// CLI.
func VersionString() string {
	return fmt.Sprintf("result-cache schema v%d\ncode stamp: %s",
		resultcache.SchemaVersion, resultcache.CodeStamp())
}
