"""Controller metadata: tenant catalog, LogBlock map and its persistence."""
